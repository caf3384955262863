// Package vmem simulates device-memory management: a caching allocator
// modeled on the PyTorch CUDA caching allocator, giving the GNNMark device
// model a real notion of HBM capacity. Allocations round to size classes,
// are served best-fit from per-pool free lists (with block splitting), and
// coalesce with free neighbors on release; fresh capacity is reserved in
// segments whose total is bounded by the configured HBM budget. When the
// budget is exhausted — even after releasing cached empty segments — Alloc
// returns a simulated OOM error carrying an allocator-state dump, which is
// what turns the simulator's timeline-only view of training into
// timeline + footprint (the paper's workloads are memory-bound: input
// graphs alone can occupy up to 90% of GPU memory).
//
// The allocator is safe for concurrent use, though each simulated device
// owns exactly one and drives it from a single goroutine; the mutex is what
// lets DDP clusters and tests share the obs-facing stats race-free.
package vmem

import (
	"fmt"
	"sort"
	"sync"

	"gnnmark/internal/obs"
)

// Size-class constants, matching the PyTorch CUDA caching allocator.
const (
	// MinBlockSize is the rounding granule: every request rounds up to a
	// multiple of 512 bytes, so all block addresses stay 512-aligned.
	MinBlockSize = 512
	// SmallSize is the small-allocation threshold: requests at or below
	// 1 MiB are served from dedicated small segments.
	SmallSize = 1 << 20
	// SmallSegment is the segment size backing the small pool (2 MiB).
	SmallSegment = 2 << 20
	// MinLargeAlloc and LargeBuffer: large requests up to 10 MiB reserve a
	// 20 MiB buffer (so several coexist per segment); bigger requests get a
	// segment of their own, rounded to RoundLarge.
	MinLargeAlloc = 10 << 20
	LargeBuffer   = 20 << 20
	RoundLarge    = 2 << 20
)

// RoundSize rounds a request up to the allocator's size class: the next
// multiple of MinBlockSize. The host tensor pool shares this rounding so
// host buffers recycle across the same class boundaries device blocks do.
func RoundSize(n int64) int64 {
	if n <= 0 {
		return MinBlockSize
	}
	return (n + MinBlockSize - 1) &^ int64(MinBlockSize-1)
}

// SegmentSize returns the reservation a rounded request of the given size
// triggers when no cached block fits.
func SegmentSize(rounded int64) int64 {
	switch {
	case rounded <= SmallSize:
		return SmallSegment
	case rounded <= MinLargeAlloc:
		return LargeBuffer
	default:
		return (rounded + RoundLarge - 1) &^ int64(RoundLarge-1)
	}
}

// segment is one contiguous reservation of simulated address space.
type segment struct {
	base  uint64
	size  int64
	small bool
}

// Block is one device allocation (or a cached free range). Blocks form an
// address-ordered doubly linked list within their segment, which is what
// makes splitting and coalescing O(1).
type Block struct {
	addr       uint64
	size       int64 // usable (rounded) bytes
	tag        string
	shape      []int // with tag, names the block in an OOM report (see label)
	seg        *segment
	prev, next *Block
	free       bool
	dead       bool // merged away: reused only once Reclaim takes it back
	// holds counts the times the block was handed out less those Reclaim
	// was told of: a holder may keep a pointer past Free.
	holds int
}

// Addr returns the block's simulated device address.
func (b *Block) Addr() uint64 { return b.addr }

// Placeholder returns a detached block that is not backed by any allocator:
// the fallback gpu.Device hands out after a failed allocation so kernel
// lowering can reach the launch fence (where the OOM is raised with the
// kernel's name). Free on a placeholder is a no-op.
func Placeholder(addr uint64, size int64) *Block {
	return &Block{addr: addr, size: size}
}

// Stats is a snapshot of allocator counters.
type Stats struct {
	// Reserved is the bytes held in segments; Live the bytes in handed-out
	// blocks; the peaks are high-water marks (reset with ResetPeak).
	Reserved, Live         int64
	PeakLive, PeakReserved int64
	Allocs, Frees          uint64
	ReuseHits              uint64 // allocations served from the free lists
	Splits, Coalesces      uint64
	SegmentsFreed          uint64 // cached segments released under pressure
	OOMs                   uint64
}

// ReuseRate returns the fraction of allocations served without reserving
// new capacity.
func (s Stats) ReuseRate() float64 {
	if s.Allocs == 0 {
		return 0
	}
	return float64(s.ReuseHits) / float64(s.Allocs)
}

// PeakFragmentation returns 1 - peakLive/peakReserved: the reservation
// overhead beyond the footprint high-water mark. This is the end-of-run
// fragmentation figure reports quote (the instantaneous ratio reads 100%
// after the final bulk release).
func (s Stats) PeakFragmentation() float64 {
	if s.PeakReserved == 0 {
		return 0
	}
	return 1 - float64(s.PeakLive)/float64(s.PeakReserved)
}

// BlockInfo describes one live allocation in an OOM dump.
type BlockInfo struct {
	Tag   string
	Bytes int64
}

// Allocator is a capacity-bounded caching device-memory allocator.
type Allocator struct {
	mu       sync.Mutex
	capacity int64
	cursor   uint64
	// free lists: [0] small-segment blocks, [1] large-segment blocks, each
	// sorted by (size, addr) for deterministic best-fit.
	free  [2][]*Block
	live  map[*Block]struct{}
	stats Stats
	// dead holds the blocks merged away (coalesced, or a released cached
	// segment's) and not yet reclaimed; spare the reclaimed ones, which
	// splits and segment reservations reuse instead of allocating.
	dead, spare []*Block
	m           metrics
}

// metrics are the allocator's handles in its run (nil without one); the
// gauges sum the run's allocators, under DDP the fleet-wide view.
type metrics struct {
	live, peak, reserved           *obs.Gauge
	allocs, frees, reuseHits, ooms *obs.Counter
}

// New returns an allocator of capacity bytes that records into run.
func New(capacity int64, run *obs.Run) *Allocator {
	if capacity <= 0 {
		panic("vmem: capacity must be positive")
	}
	return &Allocator{
		capacity: capacity,
		cursor:   SmallSegment, // leave page zero unmapped, like a real driver
		live:     map[*Block]struct{}{},
		m: metrics{
			live:      run.Gauge("vmem.live_bytes"),
			peak:      run.Gauge("vmem.peak_bytes"),
			reserved:  run.Gauge("vmem.reserved_bytes"),
			allocs:    run.Counter("vmem.allocs_total"),
			frees:     run.Counter("vmem.frees_total"),
			reuseHits: run.Counter("vmem.reuse_hits_total"),
			ooms:      run.Counter("vmem.oom_total"),
		},
	}
}

// Alloc reserves bytes under tag and returns the block, or a *OOMError when
// the request cannot be satisfied within the capacity budget. A tensor's
// block passes its shape too (kept, not copied): the report names it
// tag+shape, and only a report pays for formatting that.
func (a *Allocator) Alloc(bytes int64, tag string, shape ...int) (*Block, error) {
	if bytes < 0 {
		panic("vmem: negative allocation")
	}
	rounded := RoundSize(bytes)
	a.mu.Lock()
	defer a.mu.Unlock()

	pool := 1
	if rounded <= SmallSize {
		pool = 0
	}
	if b := a.takeFree(pool, rounded); b != nil {
		a.stats.ReuseHits++
		a.m.reuseHits.Inc()
		return a.commit(b, rounded, tag, shape), nil
	}

	segSize := SegmentSize(rounded)
	if a.stats.Reserved+segSize > a.capacity {
		// Mirror cudaMalloc-retry-after-cudaFree: drop cached segments that
		// are entirely free, then try again.
		a.releaseCachedLocked()
	}
	if a.stats.Reserved+segSize > a.capacity {
		a.stats.OOMs++
		a.m.ooms.Inc()
		return nil, a.oomLocked(bytes, rounded, segSize, label(tag, shape))
	}
	b := a.reserveSegment(segSize, pool == 0)
	return a.commit(b, rounded, tag, shape), nil
}

// Free returns a block to its free list, coalescing with free neighbors.
// Freeing a placeholder, an already-free, or a merged-away block is a no-op
// (the op engine's bookkeeping may revisit blocks during bulk resets).
func (a *Allocator) Free(b *Block) {
	if b == nil || b.seg == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if b.free || b.dead {
		return
	}
	a.stats.Frees++
	a.stats.Live -= b.size
	a.m.frees.Inc()
	a.m.live.Add(-b.size)
	delete(a.live, b)
	b.free = true
	b.tag, b.shape = "", nil

	if n := b.next; n != nil && n.free {
		a.removeFree(n)
		b.size += n.size
		b.next = n.next
		if n.next != nil {
			n.next.prev = b
		}
		n.dead = true
		a.dead = append(a.dead, n)
		a.stats.Coalesces++
	}
	if p := b.prev; p != nil && p.free {
		a.removeFree(p)
		p.size += b.size
		p.next = b.next
		if b.next != nil {
			b.next.prev = p
		}
		b.dead = true
		a.dead = append(a.dead, b)
		b = p
		a.stats.Coalesces++
	}
	a.insertFree(b)
}

// Reclaim records that the caller dropped its pointers to dropped (one
// entry per time it was handed a block) and makes every dead block nobody
// holds reusable; until then a Free through a stale pointer to a dead block
// does nothing. An ops.Engine calls it with all its blocks at the end of
// its bulk release, so another owner's blocks stay out of reuse.
func (a *Allocator) Reclaim(dropped []*Block) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, b := range dropped {
		b.holds--
	}
	held := a.dead[:0]
	for _, b := range a.dead {
		if b.holds > 0 {
			held = append(held, b)
		} else {
			a.spare = append(a.spare, b)
		}
	}
	clear(a.dead[len(held):])
	a.dead = held
}

// newBlock returns a block to fill: a reclaimed one when there is one.
func (a *Allocator) newBlock() *Block {
	if n := len(a.spare); n > 0 {
		b := a.spare[n-1]
		a.spare = a.spare[:n-1]
		return b
	}
	return new(Block)
}

// Stats returns a snapshot of the allocator counters.
func (a *Allocator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// ResetPeak rebases the high-water marks to the current live/reserved
// levels; core.Run calls it when training measurement starts so peaks
// exclude construction-time churn (still-live construction tensors remain
// in the base).
func (a *Allocator) ResetPeak() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.PeakLive = a.stats.Live
	a.stats.PeakReserved = a.stats.Reserved
}

// topLiveLocked returns the n largest live allocations (by usable size,
// ties by address), for OOM reports.
func (a *Allocator) topLiveLocked(n int) []BlockInfo {
	blocks := make([]*Block, 0, len(a.live))
	for b := range a.live {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].size != blocks[j].size {
			return blocks[i].size > blocks[j].size
		}
		return blocks[i].addr < blocks[j].addr
	})
	if n > len(blocks) {
		n = len(blocks)
	}
	out := make([]BlockInfo, n)
	for i := 0; i < n; i++ {
		out[i] = BlockInfo{Tag: label(blocks[i].tag, blocks[i].shape), Bytes: blocks[i].size}
	}
	return out
}

// takeFree removes and returns the best-fit free block (smallest that
// fits), or nil. The list is (size, addr)-sorted, so the first fit is the
// best fit and the choice is deterministic.
func (a *Allocator) takeFree(pool int, rounded int64) *Block {
	list := a.free[pool]
	i := sort.Search(len(list), func(i int) bool { return list[i].size >= rounded })
	if i == len(list) {
		return nil
	}
	b := list[i]
	a.free[pool] = append(list[:i], list[i+1:]...)
	return b
}

// insertFree adds b to its pool's sorted free list.
func (a *Allocator) insertFree(b *Block) {
	pool := 1
	if b.seg.small {
		pool = 0
	}
	list := a.free[pool]
	i := sort.Search(len(list), func(i int) bool {
		if list[i].size != b.size {
			return list[i].size > b.size
		}
		return list[i].addr >= b.addr
	})
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = b
	a.free[pool] = list
}

// removeFree deletes b from its pool's free list.
func (a *Allocator) removeFree(b *Block) {
	pool := 1
	if b.seg.small {
		pool = 0
	}
	list := a.free[pool]
	i := sort.Search(len(list), func(i int) bool {
		if list[i].size != b.size {
			return list[i].size > b.size
		}
		return list[i].addr >= b.addr
	})
	for i < len(list) && list[i] != b {
		i++
	}
	if i == len(list) {
		panic("vmem: free block missing from its free list")
	}
	a.free[pool] = append(list[:i], list[i+1:]...)
}

// commit splits b down to the rounded size when worthwhile, marks it live,
// and updates the gauges.
func (a *Allocator) commit(b *Block, rounded int64, tag string, shape []int) *Block {
	if b.size-rounded >= MinBlockSize {
		rem := a.newBlock()
		*rem = Block{
			addr: b.addr + uint64(rounded),
			size: b.size - rounded,
			seg:  b.seg,
			prev: b,
			next: b.next,
			free: true,
		}
		if b.next != nil {
			b.next.prev = rem
		}
		b.next = rem
		b.size = rounded
		a.insertFree(rem)
		a.stats.Splits++
	}
	b.free = false
	b.holds++
	b.tag, b.shape = tag, shape
	a.live[b] = struct{}{}
	a.stats.Allocs++
	a.stats.Live += b.size
	if a.stats.Live > a.stats.PeakLive {
		a.stats.PeakLive = a.stats.Live
	}
	a.m.allocs.Inc()
	a.m.live.Add(b.size)
	a.m.peak.SetMax(a.m.live.Value())
	return b
}

// reserveSegment maps a fresh segment and returns the single free-spanning
// block covering it (not yet on a free list).
func (a *Allocator) reserveSegment(size int64, small bool) *Block {
	seg := &segment{base: a.cursor, size: size, small: small}
	a.cursor += uint64(size)
	a.stats.Reserved += size
	if a.stats.Reserved > a.stats.PeakReserved {
		a.stats.PeakReserved = a.stats.Reserved
	}
	a.m.reserved.Add(size)
	b := a.newBlock()
	*b = Block{addr: seg.base, size: size, seg: seg}
	return b
}

// releaseCachedLocked drops every cached segment that is entirely free (its
// free block spans the whole segment), returning its reservation to the
// budget — the simulated analogue of torch.cuda.empty_cache before an OOM.
func (a *Allocator) releaseCachedLocked() {
	for pool := range a.free {
		kept := a.free[pool][:0]
		for _, b := range a.free[pool] {
			if b.size == b.seg.size {
				a.stats.Reserved -= b.seg.size
				a.stats.SegmentsFreed++
				a.m.reserved.Add(-b.seg.size)
				b.dead = true
				a.dead = append(a.dead, b)
				continue
			}
			kept = append(kept, b)
		}
		a.free[pool] = kept
	}
}

// label is the name an allocation carries in an OOM report: the tag, then
// the shape as %v prints it when one was given.
func label(tag string, shape []int) string {
	if shape == nil {
		return tag
	}
	return tag + fmt.Sprint(shape)
}

// oomLocked builds the simulated-OOM error with an allocator-state dump.
func (a *Allocator) oomLocked(requested, rounded, segSize int64, tag string) error {
	return &OOMError{
		Tag:          tag,
		Requested:    requested,
		Rounded:      rounded,
		SegmentBytes: segSize,
		Capacity:     a.capacity,
		Reserved:     a.stats.Reserved,
		Live:         a.stats.Live,
		TopLive:      a.topLiveLocked(8),
	}
}

// OOMError is a simulated device out-of-memory failure. gpu.Device fills
// Kernel with the name of the kernel whose lowering triggered it.
type OOMError struct {
	// Kernel names the kernel being lowered when the allocation failed
	// (empty when the failure happened outside kernel lowering).
	Kernel string
	// Tag and Requested/Rounded describe the failing allocation;
	// SegmentBytes is the reservation it would have needed.
	Tag          string
	Requested    int64
	Rounded      int64
	SegmentBytes int64
	// Capacity/Reserved/Live snapshot the allocator at failure time.
	Capacity, Reserved, Live int64
	// TopLive lists the largest live allocations (the dump).
	TopLive []BlockInfo
}

// Error renders the multi-line simulated-OOM report.
func (e *OOMError) Error() string {
	kernel := e.Kernel
	if kernel == "" {
		kernel = "(outside kernel lowering)"
	}
	s := fmt.Sprintf(
		"vmem: simulated device OOM in kernel %s: alloc %s for %s needs a %s segment; HBM capacity %s, reserved %s, live %s",
		kernel, FormatBytes(e.Rounded), e.Tag, FormatBytes(e.SegmentBytes),
		FormatBytes(e.Capacity), FormatBytes(e.Reserved), FormatBytes(e.Live))
	if len(e.TopLive) > 0 {
		s += "\ntop live allocations:"
		for i, b := range e.TopLive {
			s += fmt.Sprintf("\n  %2d. %-28s %s", i+1, b.Tag, FormatBytes(b.Bytes))
		}
	}
	return s
}

// FormatBytes renders a byte count with a binary-prefix unit.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
