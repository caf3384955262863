package gpu

// Cache is a set-associative LRU cache simulator operating on line-granular
// addresses. It is deliberately minimal: a tag store only, no data, no
// write-back modeling (stores allocate like loads, approximating the
// write-allocate behavior of GPU L1/L2 sector caches).
type Cache struct {
	lineBytes int
	numSets   int
	ways      int
	lineShift uint
	setMask   uint64

	// tags[set*ways : (set+1)*ways] is the set's LRU list, most recently used
	// first; empty ways hold invalidTag and sit at its tail.
	tags []uint64

	// gen[set] is the epoch in which the set's ways were last cleared. A set
	// stamped before the current epoch is empty whatever its ways hold:
	// Invalidate only starts a new epoch, and touch clears a stale set
	// before using it, so a launch pays for the sets it touches rather than
	// for the whole cache.
	gen   []uint64
	epoch uint64

	hits   uint64
	misses uint64
}

const invalidTag = ^uint64(0)

// NewCache builds a cache of the given total size, line size, and
// associativity. Sizes that do not divide evenly are rounded down to a whole
// number of sets (minimum one). The line size must be a power of two: lines
// are addressed by shift.
func NewCache(sizeBytes, lineBytes, ways int) *Cache {
	if lineBytes <= 0 || ways <= 0 || sizeBytes <= 0 {
		panic("gpu: NewCache requires positive geometry")
	}
	if lineBytes&(lineBytes-1) != 0 {
		panic("gpu: NewCache requires a power-of-two line size")
	}
	numSets := sizeBytes / (lineBytes * ways)
	if numSets < 1 {
		numSets = 1
	}
	// Round down to a power of two so set indexing is a mask.
	for numSets&(numSets-1) != 0 {
		numSets &= numSets - 1
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	c := &Cache{
		lineBytes: lineBytes,
		numSets:   numSets,
		ways:      ways,
		lineShift: shift,
		setMask:   uint64(numSets - 1),
		tags:      make([]uint64, numSets*ways),
		gen:       make([]uint64, numSets),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// AccessLine touches the line containing addr and reports whether it hit.
// On a miss the LRU way of the set is replaced.
func (c *Cache) AccessLine(addr uint64) bool {
	return c.touch(addr >> c.lineShift)
}

// touch is AccessLine for a caller that already holds the line number
// (addr >> lineShift). A hit at the front of the set's list returns at once;
// a deeper hit moves its line to the front. A miss shifts the whole list down
// one way, which drops the last way (an empty one if the set has any, else
// the least recently used line), and puts the new line at the front.
func (c *Cache) touch(line uint64) bool {
	set := int(line & c.setMask)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	if c.gen[set] != c.epoch {
		c.gen[set] = c.epoch
		for w := range tags {
			tags[w] = invalidTag
		}
	}
	if tags[0] == line {
		c.hits++
		return true
	}

	w := 1
	for w < len(tags) && tags[w] != line {
		w++
	}
	hit := w < len(tags)
	if hit {
		c.hits++
	} else {
		w--
		c.misses++
	}
	copy(tags[1:w+1], tags[:w])
	tags[0] = line
	return hit
}

// ResetCounters zeroes the hit/miss counters but keeps cache contents,
// allowing per-kernel accounting over a warm cache.
func (c *Cache) ResetCounters() { c.hits, c.misses = 0, 0 }

// Invalidate empties the cache and zeroes the counters, in constant time:
// every set goes stale at once (see gen).
func (c *Cache) Invalidate() {
	c.epoch++
	c.ResetCounters()
}
