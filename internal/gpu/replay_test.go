package gpu

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// replayTwins are two devices of one configuration fed the same kernel
// sequence: fast through replayMemory, ref through the lane-by-lane
// replayMemoryRef over the stamped reference caches. Their L2s stay warm
// across launches, so a difference in replay order shows up in a later
// launch even when the counters agree.
type replayTwins struct {
	fast *Device
	ref  *refDevice
}

func newReplayTwins(cfg Config) replayTwins {
	return replayTwins{fast: New(cfg), ref: newRefDevice(cfg)}
}

// replay runs k on both twins and describes the first difference in
// memResult (latencyCycles bit for bit) or in either cache's per-set recency
// lists and counters; it returns "" when there is none.
func (tw replayTwins) replay(k *Kernel) string {
	got := tw.fast.replayMemory(k)
	want, refL1 := tw.ref.replayMemoryRef(k)
	if math.Float64bits(got.latencyCycles) != math.Float64bits(want.latencyCycles) {
		return fmt.Sprintf("latencyCycles = %v, reference %v", got.latencyCycles, want.latencyCycles)
	}
	if got != want {
		return fmt.Sprintf("memResult = %+v, reference %+v", got, want)
	}
	if !sameState(tw.fast.l1For(tw.fast.sampleFactor(k)), refL1) {
		return "L1 lists or counters differ"
	}
	if !sameState(tw.fast.l2, tw.ref.l2) {
		return "L2 lists or counters differ"
	}
	return ""
}

// smallCaches is a V100 with caches small enough that short test streams
// evict from L2 as well as from L1.
func smallCaches(l1Line, l2Line int) Config {
	cfg := V100()
	cfg.Name = fmt.Sprintf("small %d/%d", l1Line, l2Line)
	cfg.L1SizeKB, cfg.L1LineBytes, cfg.L1Ways = 4, l1Line, 4
	cfg.L2SizeKB, cfg.L2LineBytes, cfg.L2Ways = 64, l2Line, 16
	return cfg
}

// smallConfigs covers both directions of the L1-line-to-L2-line shift: L1
// lines wider than L2's (as in every preset), equal, and narrower.
func smallConfigs() []Config {
	return []Config{smallCaches(128, 64), smallCaches(32, 32), smallCaches(64, 128)}
}

// gatherStreams returns the three index shapes the gathered path must keep
// exact: uniform random rows, a sorted stream with repeats (neighbouring
// lanes share lines), and one hot row.
func gatherStreams(rng *rand.Rand, n int) [][]int32 {
	uniform := make([]int32, n)
	for i := range uniform {
		uniform[i] = rng.Int31n(1 << 16)
	}
	sorted := make([]int32, n)
	for i := range sorted {
		sorted[i] = rng.Int31n(int32(n / 4))
	}
	slices.Sort(sorted)
	hot := make([]int32, n)
	for i := range hot {
		hot[i] = 4242
	}
	return [][]int32{uniform, sorted, hot}
}

// replayKernels returns one kernel per (element size, repeat) pair: every
// stride and every gather shape as its accesses, over bases that overlap
// within and across kernels, then an empty index stream, lanes that wrap past
// the top of the address space and a short unaligned store. lanes that are
// not a multiple of 32 leave a partial last warp.
func replayKernels(rng *rand.Rand, lanes int) []*Kernel {
	strides := []int{0, 1, 2, 3, 16, 32, 33, 100, 4096, -1, -33}
	gathers := gatherStreams(rng, lanes)
	var kernels []*Kernel
	for _, elem := range []int{1, 2, 4, 8} {
		for _, repeat := range []int{0, 1, 4} {
			k := &Kernel{Name: fmt.Sprintf("elem%d.rep%d", elem, repeat)}
			for i, s := range strides {
				k.Accesses = append(k.Accesses, Access{
					Kind: AccessKind(i % 2), Base: 1<<20 + uint64(i*52), ElemBytes: elem,
					Count: lanes >> (i % 3), Stride: s, Repeat: repeat,
				})
			}
			for i, idx := range gathers {
				k.Accesses = append(k.Accesses, Access{
					Kind: AccessKind(i % 2), Base: 1<<20 + uint64(i*12), ElemBytes: elem,
					Indices: idx, Repeat: repeat,
				})
			}
			k.Accesses = append(k.Accesses,
				// A non-nil empty index stream is indexed with no lanes.
				Access{Kind: LoadAccess, Base: 1 << 20, ElemBytes: elem, Count: 99, Stride: 1, Indices: []int32{}},
				// The last lanes wrap past the top of the address space.
				Access{Kind: LoadAccess, Base: math.MaxUint64 - 1000, ElemBytes: elem, Count: 2000, Stride: 1},
				Access{Kind: StoreAccess, Base: 1<<20 + 7, ElemBytes: elem, Count: 31, Stride: 1},
			)
			kernels = append(kernels, k)
		}
	}
	return kernels
}

func TestReplayMatchesReference(t *testing.T) {
	cfgs := smallConfigs()
	for _, name := range PresetNames() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	for _, base := range cfgs {
		for _, warps := range []int{64, 512, 4096, 1 << 14} {
			for _, bypass := range []bool{false, true} {
				cfg := base
				cfg.MaxSampledWarps, cfg.BypassL1 = warps, bypass
				t.Run(fmt.Sprintf("%s/warps=%d/bypass=%v", cfg.Name, warps, bypass), func(t *testing.T) {
					tw := newReplayTwins(cfg)
					rng := rand.New(rand.NewSource(int64(warps)))
					for n, k := range replayKernels(rng, 8192+5) {
						if diff := tw.replay(k); diff != "" {
							t.Fatalf("launch %d (%s): %s", n, k.Name, diff)
						}
					}
				})
			}
		}
	}
}

// TestRepeatedTopLineNeverSettles: with one-byte lines the line at the top
// of the address space has the empty ways' tag, so a rep that drops it from
// a full set evicts a line the cache does not count. The replay must keep
// walking such a stream rather than settle on it: a rep that touches that
// line and then exactly fills its set would settle, and the next rep misses.
func TestRepeatedTopLineNeverSettles(t *testing.T) {
	for _, bypass := range []bool{false, true} {
		cfg := smallCaches(32, 32)
		cfg.L1LineBytes, cfg.L2LineBytes, cfg.BypassL1 = 1, 1, bypass
		d := New(cfg)
		first := d.l1
		if bypass {
			first = d.l2
		}
		sets := int32(first.setMask + 1)
		idx := []int32{0}
		for w := int32(1); w <= int32(first.ways); w++ {
			idx = append(idx, -w*sets) // the top line's set, a new line each
		}
		k := &Kernel{Name: "top-line", Accesses: []Access{
			{Kind: LoadAccess, Base: math.MaxUint64, ElemBytes: 1, Indices: idx, Repeat: 3},
		}}
		tw := replayTwins{fast: d, ref: newRefDevice(cfg)}
		if diff := tw.replay(k); diff != "" {
			t.Fatalf("bypass=%v: %s", bypass, diff)
		}
	}
}

// TestAppendingAKernelKeepsEarlierStats: replaying kernels k1..kn and then
// k(n+1) leaves k1..kn's memResult as a replay of k1..kn alone has them, for
// every n — a launch reads only the state its predecessors left.
func TestAppendingAKernelKeepsEarlierStats(t *testing.T) {
	for _, base := range append(smallConfigs(), V100()) {
		cfg := base
		cfg.MaxSampledWarps = 512
		kernels := replayKernels(rand.New(rand.NewSource(2)), 2048+5)
		whole := New(cfg)
		var want []memResult
		for _, k := range kernels {
			want = append(want, whole.replayMemory(k))
		}
		for n := 1; n < len(kernels); n++ {
			d := New(cfg)
			for i, k := range kernels[:n] {
				if got := d.replayMemory(k); got != want[i] {
					t.Fatalf("%s: kernel %d of %d replayed alone = %+v, followed by %d more = %+v",
						cfg.Name, i+1, n, got, len(kernels)-n, want[i])
				}
			}
		}
	}
}

// fuzzKernels decodes data into a device configuration and a short kernel
// sequence. Every byte string decodes to something valid: the point is the
// spread of strides, element sizes, bases, counts and index shapes, not the
// encoding.
func fuzzKernels(data []byte) (Config, []*Kernel) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	cfgs := append(smallConfigs(), V100())
	h := next()
	cfg := cfgs[h%len(cfgs)]
	cfg.MaxSampledWarps = []int{8, 64, 512, 4096}[h>>3&3]
	cfg.BypassL1 = h>>5&1 == 1

	strides := []int{0, 1, 2, 3, 5, 16, 31, 32, 33, 64, 100, 128, 4096, -1, -2, -33, math.MaxInt, math.MinInt}
	elems := []int{1, 2, 4, 8, 16, 0, 3, 256, -4}
	var kernels []*Kernel
	k := &Kernel{Name: "fuzz0"}
	for len(data) > 0 && len(kernels) < 8 {
		flags := next()
		a := Access{
			Kind:      AccessKind(flags & 1),
			ElemBytes: elems[next()%len(elems)],
			Repeat:    flags >> 1 & 7,
			Base:      1<<20 + uint64(next())<<4 + uint64(next()),
		}
		if flags&16 != 0 {
			a.Base = math.MaxUint64 - a.Base>>8
		}
		count := next()<<4 | next()&15
		if flags&32 != 0 {
			rng := rand.New(rand.NewSource(int64(next())))
			span := int32(1) << (next() % 20)
			a.Indices = make([]int32, count)
			for i := range a.Indices {
				a.Indices[i] = rng.Int31n(span) - span/8 // some negative
			}
			if flags&64 != 0 {
				slices.Sort(a.Indices)
			}
		} else {
			a.Count, a.Stride = count, strides[next()%len(strides)]
		}
		k.Accesses = append(k.Accesses, a)
		if flags&128 != 0 {
			kernels = append(kernels, k)
			k = &Kernel{Name: fmt.Sprintf("fuzz%d", len(kernels))}
		}
	}
	return cfg, append(kernels, k)
}

// FuzzReplayEquivalence holds replayMemory to replayMemoryRef on generated
// kernel sequences: run the committed corpus with `go test`, mutate with
// `go test -run '^$' -fuzz FuzzReplayEquivalence -fuzztime 10s ./internal/gpu`.
func FuzzReplayEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, kernels := fuzzKernels(data)
		tw := newReplayTwins(cfg)
		for i, k := range kernels {
			if diff := tw.replay(k); diff != "" {
				t.Fatalf("%s, launch %d of %d: %s\n%+v", cfg.Name, i, len(kernels), diff, *k)
			}
		}
	})
}
