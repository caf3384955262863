package serve

import (
	"reflect"
	"sort"
	"testing"
)

func TestOpenArrivalsDeterministicAndSorted(t *testing.T) {
	cfg := LoadConfig{Seed: 9, QPS: 500, Duration: 0.5, Items: 100}
	a := OpenArrivals(cfg)
	b := OpenArrivals(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].Time < a[j].Time }) {
		t.Fatal("arrivals out of order")
	}
	for _, r := range a {
		if r.Time < 0 || r.Time >= cfg.Duration {
			t.Fatalf("arrival %v outside horizon", r.Time)
		}
		if r.Item < 0 || int(r.Item) >= cfg.Items {
			t.Fatalf("item %d outside space", r.Item)
		}
	}
	// Poisson at 500 QPS over 0.5 s: ~250 requests, allow wide slack.
	if len(a) < 150 || len(a) > 400 {
		t.Fatalf("arrival count %d implausible for rate", len(a))
	}
	// Zipf popularity: the hottest item should dominate a uniform share.
	counts := map[int32]int{}
	for _, r := range a {
		counts[r.Item]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount < 3*len(a)/cfg.Items {
		t.Fatalf("no popularity skew: max item count %d of %d", maxCount, len(a))
	}
}
