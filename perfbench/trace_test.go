package main

import (
	"math"
	"testing"
)

// handTree is one request:
//
//	server [0,100]
//	├── a [10,40] live
//	│   └── a1 [20,30] live
//	├── b [30,60] live (overlaps a: the union of a and b is [10,60])
//	├── c [200,215] replayed after the request (15 long)
//	│   └── c1 [300,320] replayed (20 long, longer than c: c's self clamps)
//	└── d [90,120] live, ends after its parent: clipped to [90,100]
//
// plus a probe outside the tree and a second request's root.
func handTree() []span {
	return []span{
		{id: 0, parent: noParent, req: 1, name: "server", start: 0, end: 100},
		{id: 1, parent: 0, req: 1, name: "a", start: 10, end: 40},
		{id: 2, parent: 1, req: 1, name: "a1", start: 20, end: 30},
		{id: 3, parent: 0, req: 1, name: "b", start: 30, end: 60},
		{id: 4, parent: 0, req: 1, name: "c", start: 200, end: 215, replay: true},
		{id: 5, parent: 4, req: 1, name: "c1", start: 300, end: 320, replay: true},
		{id: 6, parent: 0, req: 1, name: "d", start: 90, end: 120},
		{id: 7, parent: noParent, req: 1, name: "probe", start: 500, end: 900},
		{id: 8, parent: noParent, req: 2, name: "server", start: 1000, end: 1010},
	}
}

func TestSelfTimes(t *testing.T) {
	self := selfTimes(handTree())
	// server: 100 - |[10,60] ∪ [90,100]| - 15 (replayed c) = 100 - 60 - 15.
	want := []int64{25, 20, 10, 30, 0, 20, 30, 400, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", handTree()[i].name, self[i], want[i])
		}
	}
}

func TestSelfSumGap(t *testing.T) {
	spans := handTree()
	self := selfTimes(spans)
	// Request 1: 25+20+10+30+0+20+30 = 135 against 100; the probe is
	// outside the tree. Request 2: 10 against 10. The median of the two
	// gaps, 0.35 and 0, is 0.175.
	if got := selfSumGap(spans, self, "server"); math.Abs(got-0.175) > 1e-12 {
		t.Fatalf("gap = %v, want 0.175", got)
	}
	if got := selfSumGap(spans, self, "nothing"); got != 0 {
		t.Fatalf("gap with no requests = %v, want 0", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("server", 3, noParent, false)
	rt := newReqTrace(rec, 3, root)
	child := rec.begin("querier", rt.req, rt.parent, false)
	rec.end(child, 7)
	rec.end(root, 1)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].parent != root || spans[1].n != 7 || spans[1].req != 3 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].start > spans[1].start || spans[0].end < spans[1].end {
		t.Fatalf("child %+v not inside parent %+v", spans[1], spans[0])
	}
	if got := rt.child(child); got.parent != child || got.log != rt.log {
		t.Fatalf("child trace %+v", got)
	}
}
