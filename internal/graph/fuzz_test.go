package graph

import (
	"strings"
	"testing"
)

// FuzzReadEdgeList: arbitrary text must parse or error, never panic, and
// a successful parse must yield a graph passing Validate.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n10 20\n")
	f.Add("")
	f.Add("a b\n")
	f.Add("1\n")
	f.Add("9999999999999999999999 1\n")
	f.Fuzz(func(t *testing.T, data string) {
		g, _, err := ReadEdgeList(strings.NewReader(data), nil)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph fails validation: %v", err)
		}
	})
}
