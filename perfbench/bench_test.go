package main

import (
	"math"
	"os"
	"testing"
	"time"

	"terradir/internal/namespace"
)

func TestQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
	}{{999, 9}, {1000, 10}, {1001, 10}, {100, 1}, {10, 0}} {
		if got := beyond(c.n, 0.99); got != c.want {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := windowedQuantile(xs, 0.99, 10); ok {
		t.Error("p99 of 999 samples leaves 9 beyond it but was reported as a tail")
	}
	xs = append(xs, 999)
	v, ok := windowedQuantile(xs, 0.99, 10)
	if !ok || v != 989 {
		t.Errorf("p99 of 0..999 = %v (ok %v), want 989 with 10 samples beyond", v, ok)
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {999, 0.975}, {400, 0.975}, {300, 0.95}, {200, 0.95}, {150, 0.9}, {50, 0.9}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestWindowedQuantileTakesMedianOfWindows(t *testing.T) {
	// Ten windows of 1,000 samples; one window carries a stall that would
	// decide a whole-run p99 but not the median of the windows' p99s.
	var xs []float64
	for w := 0; w < 10; w++ {
		for i := 0; i < 1000; i++ {
			x := float64(i % 100)
			if w == 3 && i >= 900 {
				x = 1e6
			}
			xs = append(xs, x)
		}
	}
	v, ok := windowedQuantile(xs, 0.99, 10)
	if !ok || v != 98 {
		t.Errorf("windowed p99 = %v (ok %v), want 98", v, ok)
	}
	if p50, _ := windowedQuantile(xs, 0.5, 10); p50 != 49 {
		t.Errorf("windowed p50 = %v, want 49", p50)
	}
}

func TestLateGeneratorChargesItsDelay(t *testing.T) {
	var l lateness
	t0 := time.Unix(0, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	never := time.Time{}
	// On time: latency is the service time.
	if got := l.observe(ms(0), never, ms(0), ms(2)); got != 2*time.Millisecond {
		t.Errorf("on-time latency %v, want 2ms", got)
	}
	// Sent 5 ms late because the client was still waiting on an earlier
	// answer: latency counts from the due time.
	if got := l.observe(ms(10), never, ms(15), ms(17)); got != 7*time.Millisecond {
		t.Errorf("late latency %v, want 7ms", got)
	}
	if l.max() != 5*time.Millisecond {
		t.Errorf("max lateness %v, want 5ms", l.max())
	}
	// A smaller delay later does not lower the maximum.
	l.observe(ms(20), never, ms(21), ms(22))
	if l.max() != 5*time.Millisecond {
		t.Errorf("max lateness %v after a smaller delay, want 5ms", l.max())
	}
	// Woken 1 ms late from a sleep: the overshoot is the timer's and is
	// neither charged nor counted as lateness.
	if got := l.observe(ms(30), ms(31), ms(31), ms(33)); got != 2*time.Millisecond {
		t.Errorf("latency after a sleep %v, want 2ms", got)
	}
	if l.max() != 5*time.Millisecond {
		t.Errorf("max lateness %v after a sleep, want 5ms", l.max())
	}
	// Due at 40 ms while its client overslept until 46 ms, sent at 48 ms
	// once the request sent at the wake was answered: the overshoot is not
	// charged, the 2 ms wait on the earlier answer is.
	if got := l.observe(ms(40), ms(46), ms(48), ms(49)); got != 3*time.Millisecond {
		t.Errorf("latency of a request due during an overshoot %v, want 3ms", got)
	}
	if l.max() != 5*time.Millisecond {
		t.Errorf("max lateness %v after an overshoot, want 5ms", l.max())
	}
}

func TestAttributeSamplesToModules(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"terradir/internal/core.(*Peer).PublishSnapshot", "terradir/internal/overlay.(*shard).loop"}, "core"},
		{[]string{"runtime.mallocgc", "terradir/internal/core.Meta.Clone"}, "runtime"},
		{[]string{"sort.insertionSort", "sort.Sort", "terradir/internal/wire.AppendMessage"}, "wire"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write"}, "syscall"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "syscall"},
		{[]string{"main.measure.func1", "main.measure"}, "other"},
		{[]string{"terradir/internal/rng.(*Source).Uint64", "terradir/internal/sim.(*Engine).Run"}, "sim"},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
	shares := cpuShares([]profSample{
		{count: 3, frames: []string{"runtime.memmove", publishFunc, "terradir/internal/overlay.(*shard).loop"}},
		{count: 1, frames: []string{"terradir/internal/gateway.(*Gateway).Lookup"}},
	})
	if shares["cpu.runtime"] != 0.75 || shares["cpu.gateway"] != 0.25 || shares["cpu.core.publish"] != 0.75 {
		t.Errorf("shares = %v", shares)
	}
	var sum float64
	for _, m := range cpuModules {
		sum += shares["cpu."+m]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("module shares sum to %v, want 1", sum)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseRuntimeProfile(t *testing.T) {
	samples, err := cpuProfile(func() { spin(300 * time.Millisecond) })
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.count
		for _, fn := range s.frames {
			if fn == "terradir/perfbench.spin" {
				inSpin += s.count
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("profile of a 300ms spin: %d samples, %d in spin", total, inSpin)
	}
	if shares := cpuShares(samples); shares["cpu.other"] < 0.5 {
		t.Errorf("spin attributed %v to other, want most of it", shares["cpu.other"])
	}
}

func TestDerivedNamesMatchConstruction(t *testing.T) {
	names := balancedNames(4)
	tree := namespace.NewBalanced(2, 4)
	walked := walkedNames(tree)
	if len(names) != tree.Len() {
		t.Fatalf("%d derived names for %d nodes", len(names), tree.Len())
	}
	for i := range names {
		if names[i] != walked[i] {
			t.Errorf("node %d: derived %q, walked %q", i, names[i], walked[i])
		}
	}
	if names[0] != "/" || names[1] != "/n0" || names[6] != "/n1/n1" {
		t.Errorf("names %v", names[:7])
	}
}

func TestZipfDrawsFollowRanks(t *testing.T) {
	r := newRand(1, 1)
	z := newZipf(r, 100, 0.9)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.next(r)]++
	}
	hot, cold := counts[z.perm[0]], counts[z.perm[99]]
	// P(rank 1)/P(rank 100) = 100^0.9 ≈ 63.
	if ratio := float64(hot) / float64(cold); ratio < 40 || ratio > 95 {
		t.Errorf("rank-1/rank-100 draw ratio %.1f, want about 63", ratio)
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, with
// all of its answer checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			name, run, traced := name, run, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				e := &env{workload: name, seed: 3, seconds: 0.5, traced: traced, smoke: true,
					workdir: t.TempDir(), tr: newTracer()}
				stdout := os.Stdout
				os.Stdout, _ = os.Open(os.DevNull)
				res, err := execute(e, run)
				os.Stdout = stdout
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatal("answer checks failed")
				}
				if res.Attempted < 1 || (name != "sim-shift" && res.Failed != 0) {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				set := endToEndMetrics
				if traced {
					set = perLayerMetrics
				}
				if len(res.Metrics) != len(set) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(set))
				}
				if !traced {
					for k, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("%s = %v, want > 0", k, m.Value)
						}
					}
				}
			})
		}
	}
}
