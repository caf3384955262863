package serve

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestParseArrivalTrace(t *testing.T) {
	in := `# comment
100 5

250 7
1000000 0
`
	reqs, err := ParseArrivalTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("parsed %d requests, want 3", len(reqs))
	}
	if reqs[0].Time != 100e-6 || reqs[0].Item != 5 {
		t.Fatalf("first request %+v", reqs[0])
	}
	if reqs[2].Time != 1.0 {
		t.Fatalf("third time %v, want 1s", reqs[2].Time)
	}
	if reqs[1].Seq != 1 {
		t.Fatalf("second request %+v", reqs[1])
	}
}

func TestParseArrivalTraceErrors(t *testing.T) {
	cases := map[string]string{
		"out of order":        "100 1\n50 2\n",
		"duplicate timestamp": "100 1\n100 2\n",
		"negative timestamp":  "-5 1\n",
		"bad timestamp":       "abc 1\n",
		"bad item":            "100 xyz\n",
		"negative item":       "100 -3\n",
		"field count":         "100 1 2\n",
		"item overflow":       "100 99999999999\n",
	}
	for name, in := range cases {
		_, err := ParseArrivalTrace(strings.NewReader(in))
		var te *TraceError
		if !errors.As(err, &te) {
			t.Errorf("%s: err = %v, want *TraceError", name, err)
			continue
		}
		if te.Line == 0 {
			t.Errorf("%s: no line number in %v", name, te)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	reqs := OpenArrivals(LoadConfig{Seed: 2, QPS: 1000, Duration: 0.05, Items: 20})
	var buf bytes.Buffer
	if err := FormatArrivalTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	back, err := ParseArrivalTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reqs) {
		t.Fatalf("round trip %d -> %d requests", len(reqs), len(back))
	}
	for i := range back {
		if back[i].Item != reqs[i].Item {
			t.Fatalf("request %d item %d -> %d", i, reqs[i].Item, back[i].Item)
		}
	}
}
