package main

import (
	"encoding/json"
	"math"
	"testing"

	"sling"
)

func pairJSON(t *testing.T, u, v int64, s float64) []byte {
	b, err := json.Marshal(pairBody{U: u, V: v, Score: s})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// One corrupted answer among many correct ones fails the run.
func TestCorruptedAnswerFailsRun(t *testing.T) {
	r := &run{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, m := range endToEnd {
		r.e2e[m.Name] = 1
	}
	for i := int64(0); i < 100; i++ {
		s := 1 / float64(i+3)
		r.chk.pair(pairJSON(t, i, i+1, s), i, i+1, s)
	}
	if res, err := r.result(); err != nil || !res.Correct {
		t.Fatalf("correct answers: result %+v, %v", res, err)
	}
	want := 0.125
	r.chk.pair(pairJSON(t, 7, 8, math.Nextafter(want, 1)), 7, 8, want)
	res, err := r.result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a score one ulp off passed the check")
	}
}

func TestNoCheckedAnswerIsNotCorrect(t *testing.T) {
	var c checker
	if c.ok() {
		t.Fatal("a checker that saw nothing reports ok")
	}
}

func TestPairCheck(t *testing.T) {
	var c checker
	c.pair(pairJSON(t, 1, 2, 0.5), 1, 2, 0.5)
	if !c.ok() {
		t.Fatalf("exact answer failed: %v", c.notes)
	}
	for _, body := range [][]byte{
		pairJSON(t, 2, 1, 0.5), // endpoints swapped
		[]byte(`{"u":1,"v":2,"score":`),
	} {
		var bad checker
		bad.pair(body, 1, 2, 0.5)
		if bad.ok() {
			t.Errorf("body %s passed", body)
		}
	}
}

func TestTopKCheck(t *testing.T) {
	dense := map[int64]sling.NodeID{100: 0, 101: 1, 102: 2, 103: 3}
	want := []scoredNode{{102, 0.5}, {101, 0.25}, {103, 0.25}}
	body := func(res []scoredNode) []byte {
		b, err := json.Marshal(topBody{U: 100, Results: res})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var c checker
	c.topk(body(want), 100, want, dense)
	if !c.ok() {
		t.Fatalf("exact list failed: %v", c.notes)
	}
	for name, res := range map[string][]scoredNode{
		"tie broken by descending ID": {{102, 0.5}, {103, 0.25}, {101, 0.25}},
		"ascending scores":            {{101, 0.25}, {102, 0.5}, {103, 0.25}},
		"short list":                  {{102, 0.5}, {101, 0.25}},
		"wrong node":                  {{102, 0.5}, {101, 0.25}, {100, 0.25}},
		"score off by one ulp":        {{102, 0.5}, {101, math.Nextafter(0.25, 0)}, {103, math.Nextafter(0.25, 0)}},
	} {
		var bad checker
		bad.topk(body(res), 100, want, dense)
		if bad.ok() {
			t.Errorf("%s passed", name)
		}
	}
	// The order check alone rejects a misordered list whatever the
	// reference says.
	if _, err := topkOrder(body([]scoredNode{{103, 0.25}, {101, 0.25}}), 100, dense); err == nil {
		t.Error("misordered tie accepted")
	}
}
