package server

import (
	"fmt"
	"net/http"
	"testing"
)

// TestShardSliceRejectsMalformedFragment posts fragments no gather could
// have produced to the shard slice routes: each is a 400, not a panic,
// a 500 or a runaway propagation.
func TestShardSliceRejectsMalformedFragment(t *testing.T) {
	s, _ := testServer(t, nil)
	const n = 40
	bodies := map[string]string{
		"node beyond n":       `{"keys":[1000],"vals":[0.5],"dvals":[1]}`,
		"vals shorter":        `{"keys":[0,1],"vals":[0.5],"dvals":[1,1]}`,
		"huge step":           fmt.Sprintf(`{"keys":[%d],"vals":[0.5],"dvals":[1]}`, uint64(4000000000)<<32),
		"steps alternate":     fmt.Sprintf(`{"keys":[%d,%d,%d],"vals":[0.5,0.5,0.5],"dvals":[1,1,1]}`, uint64(2)<<32, uint64(1)<<32|1, uint64(2)<<32|2),
		"duplicate key":       `{"keys":[1,1],"vals":[0.5,0.5],"dvals":[1,1]}`,
		"negative value":      `{"keys":[0],"vals":[-0.5],"dvals":[1]}`,
		"value above one":     `{"keys":[0],"vals":[1.5],"dvals":[1]}`,
		"value beyond float":  `{"keys":[0],"vals":[1e999],"dvals":[1]}`,
		"slice beyond graph":  `{"keys":[0],"vals":[0.5],"dvals":[1]}`,
		"well-formed control": `{"keys":[0],"vals":[0.5],"dvals":[1]}`,
	}
	for name, frag := range bodies {
		hi := n
		want := http.StatusBadRequest
		switch name {
		case "slice beyond graph":
			hi = n + 1
		case "well-formed control":
			want = http.StatusOK
		}
		for _, route := range []string{"/shard/top", "/shard/source"} {
			body := fmt.Sprintf(`{"fragment":%s,"k":3,"skip":-1,"lo":0,"hi":%d}`, frag, hi)
			rec, _ := post(t, s, route, body)
			if rec.Code != want {
				t.Errorf("%s with %s: status %d, want %d (%s)", route, name, rec.Code, want, rec.Body.String())
			}
		}
	}
}
