package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// checker collects answer-check failures from concurrent clients. It keeps
// the first few messages and counts the rest.
type checker struct {
	mu    sync.Mutex
	n     int
	first []string
}

func newChecker() *checker { return &checker{} }

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.first) < 8 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n == 0
}

func (c *checker) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.first...)
	if c.n > len(c.first) {
		out = append(out, fmt.Sprintf("... and %d more", c.n-len(c.first)))
	}
	return out
}

// --- percentiles ---

// minBeyond is the number of samples that must lie above a reported
// percentile: a percentile with fewer samples beyond it is no tail.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond reports how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	i := int(math.Ceil(q * float64(n)))
	if i < 1 {
		i = 1
	}
	return n - i
}

// windowedQuantile splits samples (in completion order) into at most
// maxWindows consecutive windows, each large enough that minBeyond samples
// lie above its q-quantile, and returns the median over the windows of each
// window's q-quantile. ok is false when even one window over every sample
// leaves fewer than minBeyond samples beyond the quantile. Taking the median
// over windows keeps one stalled second from deciding a run's tail.
func windowedQuantile(samples []float64, q float64, maxWindows int) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	k := maxWindows
	for k > 1 && beyond(n/k, q) < minBeyond {
		k--
	}
	size := n / k
	per := make([]float64, 0, k)
	buf := make([]float64, 0, size+k)
	for w := 0; w < k; w++ {
		lo, hi := w*size, (w+1)*size
		if w == k-1 {
			hi = n
		}
		buf = append(buf[:0], samples[lo:hi]...)
		sort.Float64s(buf)
		per = append(per, quantile(buf, q))
	}
	sort.Float64s(per)
	return median(per), beyond(size, q) >= minBeyond
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// --- open-loop accounting ---

// lateness tracks how far behind its schedule an open-loop generator ran.
// A request the generator could not send on time because its client was
// still waiting on an earlier answer counts from its scheduled send, so a
// stall also charges the wait it imposes on every request due during it.
// The time a client overslept is the timer's, not the system's: a request
// counts from when its client last woke from a sleep if that is later than
// its scheduled send. This covers the request sent right after the sleep
// and every later one that fell due while the timer overshot; charging those
// from their scheduled sends had made gw-zipf's median latency four times
// the gateway's own.
type lateness struct{ maxNanos atomic.Int64 }

// observe records one request due at due, sent at sent by a client that
// last woke from a sleep at woke, and answered at done, and returns its
// latency.
func (l *lateness) observe(due, woke, sent, done time.Time) time.Duration {
	if woke.After(due) {
		due = woke
	}
	if late := sent.Sub(due); late > 0 {
		for {
			cur := l.maxNanos.Load()
			if int64(late) <= cur || l.maxNanos.CompareAndSwap(cur, int64(late)) {
				break
			}
		}
	}
	return done.Sub(due)
}

func (l *lateness) max() time.Duration { return time.Duration(l.maxNanos.Load()) }

// --- the measured phase ---

// nodeCount returns the workload's namespace size unless overridden.
func (e *env) nodeCount(def int) int {
	if e.nodes > 0 {
		return e.nodes
	}
	return def
}

// loadSpec describes how a phase offers load.
type loadSpec struct {
	clients int
	rate    float64 // arrivals per second; 0 = closed loop
	seconds float64
}

// opFunc performs operation i on behalf of client c and reports whether it
// succeeded. Answer checks go to the workload's checker.
type opFunc func(c, i int) bool

// phase is the outcome of one measured phase.
type phase struct {
	ops, failed int64
	elapsed     float64   // seconds
	latUs       []float64 // per successful op, in completion order
	cpuSec      float64   // user + system CPU of the process
	maxLate     time.Duration
	peakRSSMB   float64
	mallocs     uint64
	allocBytes  uint64
	gcCPU       float64 // share of the process's CPU spent in the GC
	heapInuseMB float64
}

func (p *phase) perOp(x float64) float64 {
	if p.ops == 0 {
		return 0
	}
	return x / float64(p.ops)
}

// cpuUsPerOp is CPU per completed operation.
func (p *phase) cpuUsPerOp() float64 { return p.perOp(p.cpuSec * 1e6) }

// tailQuantiles are the percentiles e2e.tail_us may report, highest first.
var tailQuantiles = []float64{0.99, 0.975, 0.95, 0.9}

// tailQuantile picks the highest percentile that leaves at least minBeyond
// of n samples above it.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return tailQuantiles[len(tailQuantiles)-1]
}

// endToEnd converts a phase into the latency, throughput, CPU and memory
// metrics every workload reports, and records in cfg how many latency
// samples there were.
func (p *phase) endToEnd(m map[string]float64, cfg map[string]any) {
	m["ops_per_s"] = float64(p.ops) / p.elapsed
	m["p50_us"], _ = windowedQuantile(p.latUs, 0.50, 10)
	m["cpu_us_per_op"] = p.cpuUsPerOp()
	m["peak_rss_mb"] = p.peakRSSMB
	cfg["latency_samples"] = len(p.latUs)
}

// tail adds the traced run's tail latency: the highest percentile with
// minBeyond samples above it. It has no bound: on the reference host it did
// not repeat between runs of the same code within the benchmark's bounds.
func (p *phase) tail(m map[string]float64, cfg map[string]any) {
	q := tailQuantile(len(p.latUs))
	m["e2e.tail_us"], _ = windowedQuantile(p.latUs, q, 10)
	cfg["tail_percentile"] = q
}

// runtimeMetrics adds the Go runtime's per-layer figures.
func (p *phase) runtimeMetrics(m map[string]float64) {
	m["runtime.allocs_per_op"] = p.perOp(float64(p.mallocs))
	m["runtime.bytes_per_op"] = p.perOp(float64(p.allocBytes))
	m["runtime.gc_cpu_fraction"] = p.gcCPU
	m["runtime.heap_inuse_mb"] = p.heapInuseMB
}

type completion struct {
	at    int64 // nanoseconds since phase start
	latUs float64
}

// measure drives op under the load spec and records the phase. The open
// loop stride-partitions a fixed-rate schedule over the clients, so no
// client waits on another's request and a slow answer makes the following
// requests late, which their latencies then include.
func measure(spec loadSpec, op opFunc) *phase {
	runtime.GC()
	debug.FreeOSMemory()
	res := startResources()
	start := time.Now()
	perClient := make([][]completion, spec.clients)
	var ops, failed atomic.Int64
	var late lateness
	var wg sync.WaitGroup
	deadline := start.Add(time.Duration(spec.seconds * float64(time.Second)))
	total := int(spec.rate * spec.seconds)
	interval := time.Duration(0)
	if spec.rate > 0 {
		interval = time.Duration(float64(time.Second) / spec.rate)
	}
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []completion
			var woke time.Time // when the client last woke from a sleep
			doOne := func(i int, due time.Time) {
				sent := time.Now()
				ok := op(c, i)
				done := time.Now()
				ops.Add(1)
				if !ok {
					failed.Add(1)
					return
				}
				lat := late.observe(due, woke, sent, done)
				mine = append(mine, completion{at: int64(done.Sub(start)), latUs: float64(lat) / 1e3})
			}
			if spec.rate > 0 {
				for i := c; i < total; i += spec.clients {
					due := start.Add(time.Duration(i) * interval)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
						woke = time.Now()
					}
					doOne(i, due)
				}
			} else {
				for i := c; time.Now().Before(deadline); i += spec.clients {
					doOne(i, time.Now())
				}
			}
			perClient[c] = mine
		}(c)
	}
	wg.Wait()
	p := &phase{ops: ops.Load(), failed: failed.Load(), elapsed: time.Since(start).Seconds(), maxLate: late.max()}
	res.finish(p)
	var all []completion
	for _, m := range perClient {
		all = append(all, m...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	p.latUs = make([]float64, len(all))
	for i, c := range all {
		p.latUs[i] = c.latUs
	}
	return p
}

// --- process resources ---

// resources samples CPU time, allocation counters, GC CPU and the resident
// set over a phase. The resident high-water mark is sampled, not read from
// VmHWM, so memory used before the phase (a first boot, an earlier set-up)
// does not count.
type resources struct {
	cpu0     float64
	ms0      runtime.MemStats
	gc0, t0  float64
	stop     chan struct{}
	done     chan struct{}
	peakRSS  int64
	pageSize int64
}

var cpuMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func cpuClasses() (gc, total float64) {
	s := []metrics.Sample{{Name: cpuMetricNames[0]}, {Name: cpuMetricNames[1]}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func startResources() *resources {
	r := &resources{stop: make(chan struct{}), done: make(chan struct{}), pageSize: int64(os.Getpagesize())}
	runtime.ReadMemStats(&r.ms0)
	r.gc0, r.t0 = cpuClasses()
	r.cpu0 = processCPU()
	r.peakRSS = readRSSPages()
	go func() {
		defer close(r.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				if v := readRSSPages(); v > r.peakRSS {
					r.peakRSS = v
				}
			}
		}
	}()
	return r
}

func (r *resources) finish(p *phase) {
	p.cpuSec = processCPU() - r.cpu0
	close(r.stop)
	<-r.done
	if v := readRSSPages(); v > r.peakRSS {
		r.peakRSS = v
	}
	p.peakRSSMB = float64(r.peakRSS*r.pageSize) / (1 << 20)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - r.ms0.Mallocs
	p.allocBytes = ms.TotalAlloc - r.ms0.TotalAlloc
	p.heapInuseMB = float64(ms.HeapInuse) / (1 << 20)
	gc, t := cpuClasses()
	if t > r.t0 {
		p.gcCPU = (gc - r.gc0) / (t - r.t0)
	}
}

// processCPU returns the process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// readRSSPages returns the resident set in pages from /proc/self/statm.
func readRSSPages() int64 {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return 0
	}
	defer f.Close()
	line, _ := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0
	}
	v, _ := strconv.ParseInt(fields[1], 10, 64)
	return v
}
