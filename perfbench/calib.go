package main

import (
	"runtime/debug"
	"time"
)

// The host this benchmark runs on changes speed by 20% and more over
// minutes: identical triage passes ran at 0.155 to 0.270 ops/s within
// one quarter hour. A fixed kernel that shares no code with the
// validator, sampled between ops, runs slower and faster with the host.
// The end-to-end timings are scaled by the kernel's speed during the
// measurement relative to calibRef, i.e. reported at the reference host
// speed.
//
// The kernel streams through a buffer larger than the caches and fills
// and probes a cache-sized hash table. Against a fixed 8-seed campaign
// run back to back for four minutes, averaged over windows of 5-10 s,
// the stream's time correlated with the campaign's at 0.83-0.95 and
// the hash table's at 0.83-0.90; a pointer chase through a 4 MiB ring,
// used before, only at 0.46. See NOTES.md.
const (
	// calibRef is the kernel's median duration on the host the
	// benchmark was defined on (2-vCPU x86-64 container, Go 1.24).
	calibRef = 22 * time.Millisecond
	// calibEvery is the minimum time between samples at ticks.
	calibEvery  = 500 * time.Millisecond
	calibWords  = 1 << 21 // stream buffer: 16 MiB
	calibSweeps = 6
	calibSlots  = 1 << 15 // hash table: 256 KiB
	calibFills  = 10
	// calibBracket is how many samples precede and follow a timed
	// preparation.
	calibBracket = 2
)

// calibrator times the kernel. Its memory is allocated once, so a
// sample does not allocate. With GOMAXPROCS 1 a sample that overlapped
// a collection of the validator's heap would also absorb the
// collector's work, so sample first finishes any cycle in progress and
// holds the next one off until the kernel is done.
type calibrator struct {
	buf   []uint64
	table []uint64
	epoch time.Time
	last  time.Duration // when the last sample ended, since epoch
	spent time.Duration // total time in samples since reset
	n     int
	sink  uint64
}

func newCalibrator() *calibrator {
	return &calibrator{buf: make([]uint64, calibWords), table: make([]uint64, calibSlots), epoch: time.Now()}
}

// kernel sweeps the stream buffer (memory bandwidth, as the
// validator's allocation and collection use it), then fills and probes
// the hash table (cache-resident random access and data-dependent
// branches).
func (c *calibrator) kernel() {
	for k := 0; k < calibSweeps; k++ {
		for i := range c.buf {
			c.buf[i] = c.buf[i]*3 + uint64(i)
		}
	}
	x := c.buf[calibWords/2] | 1
	mask := uint64(calibSlots - 1)
	hits := uint64(0)
	for k := 0; k < calibFills; k++ {
		clear(c.table)
		for i := 0; i < 3*calibSlots/4; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h := (x >> 33) & mask
			for c.table[h] != 0 {
				h = (h + 1) & mask
			}
			c.table[h] = x
		}
		for i := 0; i < calibSlots; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			if c.table[(x>>33)&mask]&1 == 1 {
				hits++
			}
		}
	}
	c.sink += hits
}

// sample runs and times the kernel once. Waiting for a collection in
// progress (SetGCPercent(-1) returns only once no cycle is running)
// happens before the clock starts, so that work counts as the
// validator's, not the sample's.
func (c *calibrator) sample() {
	gcPercent := debug.SetGCPercent(-1)
	start := time.Since(c.epoch)
	c.kernel()
	c.last = time.Since(c.epoch)
	debug.SetGCPercent(gcPercent)
	c.spent += c.last - start
	c.n++
}

// tick samples if calibEvery has passed since the last sample. Nil-safe,
// so workloads call it unconditionally.
func (c *calibrator) tick() {
	if c != nil && time.Since(c.epoch)-c.last >= calibEvery {
		c.sample()
	}
}

func (c *calibrator) reset() { c.spent, c.n = 0, 0 }

// timed runs f between calibBracket samples on each side and returns
// its wall time in seconds, as measured and at the reference host
// speed those samples saw. A preparation lasts well under a second, and
// the samples right around it track the host during it better than the
// mean over a whole pass does (see NOTES.md).
func (c *calibrator) timed(f func()) (raw, scaled float64) {
	spent0, n0 := c.spent, c.n
	for i := 0; i < calibBracket; i++ {
		c.sample()
	}
	start := time.Now()
	f()
	raw = time.Since(start).Seconds()
	for i := 0; i < calibBracket; i++ {
		c.sample()
	}
	slowdown := float64(c.spent-spent0) / float64(c.n-n0) / float64(calibRef)
	return raw, raw / slowdown
}

// slowdown is the host's speed relative to the reference: above 1 when
// the kernel ran slower than calibRef since the last reset.
func (c *calibrator) slowdown() float64 {
	if c.n == 0 {
		c.sample()
	}
	return float64(c.spent) / float64(c.n) / float64(calibRef)
}
