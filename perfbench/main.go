// Command perfbench is the validator's benchmark. It runs one of three
// fixed-work workloads through the entry points users call and prints
// its end-to-end metrics (or, with -trace 1, its per-layer metrics) as
// the last line of standard output:
//
//	campaign  harness.RunCampaign: Algorithm 1 on the buggy hotspotlike VM
//	space     harness.EnumerateSpaceParallel: 2^n choices on the correct VM
//	triage    harness.KeepConfig -> reduce.ReduceChecked -> blame.Localize
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// See NOTES.md for why each workload exists and what each metric
// should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// procs is the benchmark's GOMAXPROCS. Every workload runs on one
// worker; with a single P the Go collector shares that worker's CPU
// instead of a second, possibly busy, host CPU, so timings do not
// depend on what else the host runs there.
const procs = 1

// setupsPerPass is how many times a run prepares its workload before
// each pass. setup_s is the median over every preparation of the run,
// each scaled by the host speed sampled right around it.
const setupsPerPass = 3

// minPasses is the fewest passes a run makes, however long they take,
// so every run compares a later pass's digest with the first.
const minPasses = 2

// workload is one benchmark workload, prepared from a seed.
type workload interface {
	// describe returns the input sizes and limits printed with results.
	describe() string
	// warmup runs one fixed op whose result is discarded.
	warmup()
	// pass runs every op once through the public entry points, calling
	// c.tick between ops.
	pass(c *calibrator) passResult
	// tracedPass issues the same calls in the same order with the VM's
	// JIT wrapped, recording spans and counters into t.
	tracedPass(t *tracer) passResult
}

// passResult is the deterministic outcome of one pass.
type passResult struct {
	ops, failed int
	// yield is the pass's exact output count; per op it is the exact
	// end-to-end metric (see NOTES.md).
	yield int64
	// digest hashes every deterministic output of the pass.
	digest string
	// replay is the part of the outputs a traced pass reproduces; equal
	// to digest where the traced pass sees everything.
	replay string
	// exact holds further exact counts, printed and reported per layer.
	exact map[string]int64
	// notes are per-op details printed with the first pass.
	notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "campaign | space | triage")
	seed := flag.Int64("seed", 1, "workload seed: selects the inputs")
	seconds := flag.Float64("seconds", 20, "measurement time: at least two passes, more while they fit")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spanDir := flag.String("spans", ".bench_build", "directory the traced run writes its spans to")
	inputs := flag.String("inputs", "perfbench/triage", "triage inputs directory (a harvest's output)")
	harvestDir := flag.String("harvest", "", "regenerate triage inputs into this directory and exit")
	from := flag.Int64("from", harvestFrom, "harvest: first campaign seed")
	to := flag.Int64("to", harvestTo, "harvest: end of the campaign seed range (exclusive)")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	if *harvestDir != "" {
		if err := harvest(*harvestDir, *from, *to); err != nil {
			fatal(err)
		}
		return
	}
	newWorkload, ok := map[string]func(int64) (workload, error){
		"campaign": newCampaign,
		"space":    newSpace,
		"triage":   func(int64) (workload, error) { return newTriage(*inputs) },
	}[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want campaign, space or triage)", *name))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}

	c := newCalibrator()
	p := &preparer{c: c, make: func() (workload, error) { return newWorkload(*seed) }}
	header := func(w workload) {
		fmt.Printf("perfbench: workload=%s seed=%d %s\n", *name, *seed, w.describe())
		fmt.Printf("perfbench: %s GOMAXPROCS=%d nproc=%d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	var rep report
	if *trace == 0 {
		rep = measure(p, header, *seconds)
	} else {
		w := p.prepare()
		header(w)
		fmt.Printf("perfbench: setup %.4f s raw\n", p.raw[0])
		rep = traced(w, filepath.Join(*spanDir, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed)))
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// preparer prepares a workload from its seed and times it: input
// generation, screening, parsing and analysis, plus the warm-up op.
type preparer struct {
	c      *calibrator
	make   func() (workload, error)
	raw    []float64 // seconds, as measured
	scaled []float64 // seconds at the reference host speed
}

func (p *preparer) prepare() workload {
	runtime.GC() // start every preparation from the same heap state
	var w workload
	raw, scaled := p.c.timed(func() {
		var err error
		if w, err = p.make(); err != nil {
			fatal(err)
		}
		w.warmup()
	})
	p.raw = append(p.raw, raw)
	p.scaled = append(p.scaled, scaled)
	return w
}

// measure prepares the workload setupsPerPass times before each pass
// and runs whole untraced passes, at least minPasses and more while
// the next one (with its preparations) is expected to fit in seconds.
// It reports medians over passes, scaled to the reference host speed
// (see calib.go), and prints the raw medians beside them. Time spent
// in calibration samples is not counted as the pass's.
func measure(p *preparer, header func(workload), seconds float64) report {
	c := p.c
	var rates, cpuPerOp, rawRates, rawCPUPerOp []float64
	var first passResult
	rep := report{Correct: true}
	elapsed := 0.0
	for pass := 0; ; pass++ {
		prepStart := time.Now()
		var w workload
		for i := 0; i < setupsPerPass; i++ {
			w = p.prepare()
		}
		prep := time.Since(prepStart).Seconds()
		if pass == 0 {
			header(w)
		}

		runtime.GC()
		c.reset()
		c.sample()
		spent0 := c.spent
		cpu0 := cpuTime()
		start := time.Now()
		r := w.pass(c)
		calib := c.spent - spent0
		wall := (time.Since(start) - calib).Seconds()
		cpu := (cpuTime() - cpu0 - calib).Seconds()
		c.sample()
		slowdown := c.slowdown()
		fmt.Printf("perfbench: pass %d: %d ops in %.3f s, %.4f CPU s, host slowdown %.4f over %d samples\n",
			pass, r.ops, wall, cpu, slowdown, c.n)
		if pass == 0 {
			first = r
			printPass(r)
		} else if r.digest != first.digest {
			fmt.Printf("perfbench: pass %d digest %s differs from pass 0\n", pass, r.digest)
			rep.Correct = false
		}
		rep.Attempted += r.ops
		rep.Failed += r.failed
		rawRates = append(rawRates, float64(r.ops)/wall)
		rawCPUPerOp = append(rawCPUPerOp, cpu*1000/float64(r.ops))
		rates = append(rates, float64(r.ops)/wall*slowdown)
		cpuPerOp = append(cpuPerOp, cpu*1000/float64(r.ops)/slowdown)
		elapsed += prep + wall
		if pass+1 >= minPasses && elapsed+prep+wall > seconds {
			break
		}
	}
	fmt.Printf("perfbench: %d passes, every digest equal: %t\n", len(rates), rep.Correct)
	fmt.Printf("perfbench: raw ops_per_s %.4f cpu_ms_per_op %.4f setup_s %.4f (median of %d preparations)\n",
		median(rawRates), median(rawCPUPerOp), median(p.raw), len(p.raw))
	fmt.Printf("perfbench: preparations (raw s):")
	for _, t := range p.raw {
		fmt.Printf(" %.4f", t)
	}
	fmt.Println()
	rep.Correct = rep.Correct && first.ops > 0
	rep.Metrics = map[string]metric{
		"ops_per_s":     {median(rates), "1/s"},
		"cpu_ms_per_op": {median(cpuPerOp), "ms"},
		"setup_s":       {median(p.scaled), "s"},
		"yield_per_op":  {float64(first.yield) / float64(first.ops), "count/op"},
	}
	return rep
}

// traced runs one untraced pass and then the traced replay of the same
// calls, which must reproduce the untraced outputs.
func traced(w workload, spanPath string) report {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	plain := w.pass(nil)
	plainWall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	printPass(plain)

	t := newTracer()
	start = time.Now()
	tr := w.tracedPass(t)
	tracedWall := time.Since(start)
	rep := report{Correct: plain.ops > 0, Attempted: tr.ops, Failed: tr.failed}
	if tr.replay != plain.replay {
		fmt.Printf("perfbench: traced pass does not reproduce the untraced outputs\n  untraced: %s\n  traced:   %s\n", plain.replay, tr.replay)
		rep.Correct = false
	}
	if err := t.writeSpans(spanPath); err != nil {
		fatal(err)
	}
	fmt.Printf("perfbench: %d spans written to %s\n", len(t.spans), spanPath)
	rep.Metrics = layerMetrics(t, plain, plainWall, tracedWall, &ms0, &ms1)
	return rep
}

func printPass(r passResult) {
	keys := make([]string, 0, len(r.exact))
	for k := range r.exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("perfbench: ops=%d failed=%d yield=%d", r.ops, r.failed, r.yield)
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, r.exact[k])
	}
	fmt.Printf("\nperfbench: digest %s\n", r.digest)
	for _, n := range r.notes {
		fmt.Printf("perfbench:   %s\n", n)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics turns a traced pass into the per-layer metrics.
func layerMetrics(t *tracer, plain passResult, plainWall, tracedWall time.Duration, ms0, ms1 *runtime.MemStats) map[string]metric {
	var attributed time.Duration
	for l := lFuzz; l < nLayers; l++ {
		attributed += t.self[l]
	}
	n := t.n
	interpSteps := n.vmSteps - n.compiledSteps
	return map[string]metric{
		"jit.exec_ms":          {ms(t.self[lJITExec]), "ms"},
		"jit.exec_entries":     {float64(n.execEntries), "count"},
		"jit.compiled_steps":   {float64(n.compiledSteps), "count"},
		"jit.exec_ns_per_step": {ratio(t.self[lJITExec].Nanoseconds(), n.compiledSteps), "ns"},
		"jit.compile_ms":       {ms(t.total[lJITCompile]), "ms"},
		"jit.compilations":     {float64(n.compilations), "count"},
		"jit.compile_failures": {float64(n.compileFailures), "count"},
		"jit.code_instrs":      {float64(n.codeInstrs), "count"},
		"jit.opts_applied":     {float64(n.optsApp), "count"},

		"vm.run_ms":       {ms(t.total[lVMRun]), "ms"},
		"vm.self_ms":      {ms(t.self[lVMRun] + t.self[lVMCall]), "ms"},
		"vm.runs":         {float64(n.vmRuns), "count"},
		"vm.timeouts":     {float64(n.vmTimeouts), "count"},
		"vm.interp_steps": {float64(interpSteps), "count"},
		"vm.gc_cycles":    {float64(n.vmGC), "count"},
		"vm.deopts":       {float64(n.vmDeopts), "count"},

		"fuzz.generate_ms":          {ms(t.total[lFuzz]), "ms"},
		"fuzz.stmts":                {float64(n.fuzzStmts), "count"},
		"jonm.mutate_ms":            {ms(t.total[lJonm]), "ms"},
		"jonm.mutants":              {float64(n.mutants), "count"},
		"jonm.methods_mutated":      {float64(n.methodsMutated), "count"},
		"bytecode.compile_ms":       {ms(t.total[lBytecode]), "ms"},
		"bytecode.methods_compiled": {float64(n.methodsBuilt), "count"},
		"harness.oracle_ms":         {ms(t.total[lOracle]), "ms"},
		"harness.discrepancies":     {float64(n.discrepancies), "count"},
		"harness.findings":          {float64(plain.exact["findings"]), "count"},
		"harness.distinct_traces":   {float64(plain.exact["distinct_traces"]), "count"},
		"reduce.self_ms":            {ms(t.self[lReduce]), "ms"},
		"reduce.keep_ms":            {ms(t.total[lKeep]), "ms"},
		"reduce.evals":              {float64(n.keepEvals), "count"},
		"reduce.accept_ratio":       {ratio(n.keepAccepted, n.keepEvals), "ratio"},
		"reduce.reduced_stmts":      {float64(plain.exact["reduced_stmts"]), "count"},
		"blame.ms":                  {ms(t.total[lBlame]), "ms"},
		"blame.probe_runs":          {float64(n.blameProbes), "count"},
		"blame.localized":           {float64(n.blameLocalized), "count"},
		"runtime.alloc_kb_per_op":   {float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(max(plain.ops, 1)), "KB"},
		"runtime.gc_cycles":         {float64(ms1.NumGC - ms0.NumGC), "count"},
		"runtime.peak_rss_mb":       {peakRSSMB(), "MB"},
		"trace.untraced_ms":         {ms(plainWall), "ms"},
		"trace.overhead_ms":         {ms(tracedWall - plainWall), "ms"},
		"trace.unattributed_ms":     {ms(tracedWall - attributed), "ms"},
		"trace.harness_self_ms":     {ms(t.self[lOp]), "ms"},
		"trace.traced_ms":           {ms(tracedWall), "ms"},
	}
}

// digestOf hashes deterministic output text.
func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s\n", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(fmt.Errorf("getrusage: %w", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(fmt.Errorf("getrusage: %w", err))
	}
	return float64(ru.Maxrss) / 1024
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
