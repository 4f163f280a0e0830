package main

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// fewer and the figure is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted latencies and
// how many samples lie strictly beyond that rank.
func percentile(sorted []time.Duration, q float64) (v time.Duration, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], len(sorted) - 1 - rank
}

// supportedPercentile returns the q-quantile when at least minBeyond
// samples lie beyond it, and otherwise the highest rank that still has
// minBeyond samples beyond it (the median for very small samples). The
// returned q is the quantile actually reported.
func supportedPercentile(sorted []time.Duration, q float64) (v time.Duration, usedQ float64) {
	n := len(sorted)
	if n == 0 {
		return 0, q
	}
	v, beyond := percentile(sorted, q)
	if beyond >= minBeyond {
		return v, q
	}
	rank := n - 1 - minBeyond
	if rank < n/2 {
		rank = n / 2
	}
	return sorted[rank], float64(rank+1) / float64(n)
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(d []time.Duration) time.Duration {
	v, _ := percentile(sortedCopy(d), 0.5)
	return v
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// usage is the process-wide resource reading taken at both ends of a
// measured window.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system, all threads
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	u := usage{at: time.Now()}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u.mallocs = m.Mallocs
	return u
}

// liveHeapMiB reports what survives a forced collection. It collects
// twice: sync.Pool contents and finalizer-held objects outlive one cycle,
// and how full the pools happen to be is not retained state.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// opLog is what one operation loop recorded: latency and completion time
// of every operation that completed, and the count that errored, were
// refused or answered wrong as far as the loop itself could tell. Answers
// checked after the loop add to failed later.
type opLog struct {
	lat       []time.Duration
	end       []time.Time
	attempted int
	failed    int
}

func (l *opLog) record(start time.Time, lat time.Duration, ok bool) {
	l.attempted++
	if !ok {
		l.failed++
		return
	}
	l.lat = append(l.lat, lat)
	l.end = append(l.end, start.Add(lat))
}

// bytes is the size of the log's own sample buffers: a time.Duration is
// 8 bytes, a time.Time 24.
func (l *opLog) bytes() int { return cap(l.lat)*8 + cap(l.end)*24 }

func (l *opLog) merge(o *opLog) {
	l.lat = append(l.lat, o.lat...)
	l.end = append(l.end, o.end...)
	l.attempted += o.attempted
	l.failed += o.failed
}

// quota hands out the operations of one loop: exactly n, shared by the
// loop's callers, whatever the machine's speed. Once giveUp has passed it
// hands out no more, and the operations never started are missed.
type quota struct {
	n      int64
	next   atomic.Int64
	giveUp time.Time
}

func newQuota(n int, giveUp time.Duration) *quota {
	return &quota{n: int64(n), giveUp: time.Now().Add(giveUp)}
}

// take claims the next operation and reports whether there was one.
func (q *quota) take() bool {
	if time.Now().After(q.giveUp) {
		return false
	}
	return q.next.Add(1) <= q.n
}

func (q *quota) missed() int { return int(q.n - min(q.next.Load(), q.n)) }

// slicesPerWindow is how many runs of equally many consecutive
// operations a window is cut into for its throughput. Each slice yields
// its own rate and the window reports their median, so a burst of
// interference from outside the process (this is a shared 2-CPU box)
// spoils a slice or two, not the run; and because a window is a fixed
// number of operations, a slice holds the same operations on every run
// however fast the machine.
const slicesPerWindow = 10

// window is one measured run of an operation loop.
type window struct {
	ops         *opLog
	first, last usage
	liveHeap    float64
}

// measure runs loop between two usage readings, then calls settle, which
// waits for background work the loop set off, and takes the live heap
// while everything the loop built is still reachable.
func measure(loop func() *opLog, settle func()) window {
	runtime.GC() // start every window from a collected heap
	w := window{first: readUsage()}
	w.ops = loop()
	w.last = readUsage()
	settle()
	// The benchmark's own latency samples are not the program's retained
	// state.
	w.liveHeap = liveHeapMiB() - float64(w.ops.bytes())/(1<<20)
	return w
}

// sliceRates returns the completion rate of each slice of the window:
// the operations in order of completion, cut into slicesPerWindow runs of
// equal length, each run's count over the time from the previous run's
// last completion to its own.
func (w window) sliceRates() []float64 {
	ends := append([]time.Time(nil), w.ops.end...)
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	var rates []float64
	from := w.first.at
	for c := 0; c < slicesPerWindow; c++ {
		lo, hi := c*len(ends)/slicesPerWindow, (c+1)*len(ends)/slicesPerWindow
		if hi == lo {
			continue
		}
		to := ends[hi-1]
		rates = append(rates, float64(hi-lo)/to.Sub(from).Seconds())
		from = to
	}
	return rates
}

// endToEnd derives the caller-visible metrics of one window. Latency
// percentiles are over every completed operation of the window; the rate
// is the median over its slices; CPU time and allocations are the
// window's totals over its completed operations. wrong is the number of
// completed operations later found to have answered wrong; they do not
// count as work done.
func (w window) endToEnd(setup time.Duration, wrong int) map[string]metric {
	sorted := sortedCopy(w.ops.lat)
	p50, _ := percentile(sorted, 0.50)
	p95, _ := supportedPercentile(sorted, 0.95)
	n := float64(max(len(sorted), 1))
	verified := (n - float64(wrong)) / n
	return map[string]metric{
		"setup_s":       {setup.Seconds(), "s"},
		"op_p50_ms":     {ms(p50), "ms"},
		"op_p95_ms":     {ms(p95), "ms"},
		"ops_per_s":     {verified * medianFloat(w.sliceRates()), "1/s"},
		"cpu_s_per_op":  {(w.last.cpu - w.first.cpu).Seconds() / n, "s"},
		"allocs_per_op": {float64(w.last.mallocs-w.first.mallocs) / n, "1"},
		"live_heap_mb":  {w.liveHeap, "MiB"},
	}
}
