package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/fuzz"
	"artemis/internal/harness"
	"artemis/internal/jonm"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/sem"
	"artemis/internal/profiles"
	"artemis/internal/vm"
)

const (
	// campaignSeeds is the size of the seed range one pass validates.
	campaignSeeds = 170
	// campaignSteps is the per-run step limit. It bounds the heavy tail
	// of step-limited mutants, so a seed range's cost does not hinge on
	// the few seeds that loop longest.
	campaignSteps = 300_000
	// campaignMaxIter is Algorithm 1's MAX_ITER.
	campaignMaxIter = 8
	// campaignWorkers is fixed (and at most nproc on any host) so the
	// measurement does not depend on the host's core count.
	campaignWorkers = 1
	// campaignWarmupSeed is the fuzzer seed of the untimed warm-up op;
	// fixed, so set-up cost does not depend on the workload seed.
	campaignWarmupSeed = 5
	// internalError is the component of a finding the harness reports
	// when a seed's validation panicked.
	internalError = "Harness Internal Error"
)

// campaign validates a contiguous range of fuzzer seeds with
// RunCampaign on the buggy hotspotlike VM, metrics on as under
// `artemis -metrics`; no journal, corpus or blame.
type campaign struct {
	prof *profiles.Profile
	base int64
}

func newCampaign(seed int64) (workload, error) {
	prof, err := profiles.Get("hotspotlike")
	if err != nil {
		return nil, err
	}
	// RunCampaign generates and analyzes every seed program itself, so
	// a campaign's only preparation is the warm-up op.
	return &campaign{prof: prof, base: int64(uint64(seed)%(1<<31)) * campaignSeeds}, nil
}

func (c *campaign) describe() string {
	return fmt.Sprintf("profile=%s seeds=[%d,%d) max_iter=%d step_limit=%d workers=%d",
		c.prof.Name, c.base, c.base+campaignSeeds, campaignMaxIter, campaignSteps, campaignWorkers)
}

func (c *campaign) options(base int64, seeds int, cal *calibrator) harness.CampaignOptions {
	opts := harness.CampaignOptions{
		Options: harness.Options{
			Profile:        c.prof,
			MaxIter:        campaignMaxIter,
			StepLimit:      campaignSteps,
			Buggy:          true,
			CollectMetrics: true,
		},
		Seeds:    seeds,
		SeedBase: base,
		Workers:  campaignWorkers,
	}
	if cal != nil {
		// With one worker the hook runs between seeds, on the
		// campaign's own goroutine.
		opts.Progress = func(harness.Progress) { cal.tick() }
	}
	return opts
}

func (c *campaign) warmup() { harness.RunCampaign(c.options(campaignWarmupSeed, 1, nil)) }

func (c *campaign) pass(cal *calibrator) passResult {
	st := harness.RunCampaign(c.options(c.base, campaignSeeds, cal))
	metricsJSON, err := harness.MetricsReport([]*harness.CampaignStats{st})
	if err != nil {
		fatal(err)
	}
	parts := []string{string(metricsJSON)}
	failed := 0
	for _, f := range st.Distinct {
		parts = append(parts, fmt.Sprintf("%s x%d", f.Signature, f.Count))
		if f.Component == internalError {
			failed += f.Count
		}
	}
	return passResult{
		ops:    campaignSeeds,
		failed: failed,
		yield:  st.Metrics.DistinctTracesTotal,
		digest: digestOf(parts...),
		replay: campaignReplay(st.Metrics, st.Runs, st.Mutants, st.DiscardedSeeds, len(st.Distinct)+st.Duplicates),
		exact: map[string]int64{
			"findings":        int64(len(st.Distinct)),
			"distinct_traces": st.Metrics.DistinctTracesTotal,
			"runs":            int64(st.Runs),
			"mutants":         int64(st.Mutants),
		},
	}
}

// campaignReplay is what the traced replay of a campaign reproduces:
// the campaign's metrics plus run, mutant, discard and finding counts.
// Finding signatures are not part of it, since the harness builds them
// internally.
func campaignReplay(m *harness.CampaignMetrics, runs, mutants, discarded, reported int) string {
	b, err := json.Marshal(m)
	if err != nil {
		fatal(err)
	}
	return fmt.Sprintf("%s runs=%d mutants=%d discarded=%d reported=%d", b, runs, mutants, discarded, reported)
}

// seedOutcome is one seed's contribution to the traced replay.
type seedOutcome struct {
	runs, mutants, reported int
	discarded, panicked     bool
	metrics                 harness.SeedMetrics
	traceKeys               map[string]bool
}

// tracedPass replays RunCampaign's calls for each seed of the range,
// in order, as the sequential worker does (harness/parallel.go runSeed
// and harness/validate.go Validate), with the JIT wrapped.
func (c *campaign) tracedPass(t *tracer) passResult {
	set := c.prof.BugSet()
	scratch := &vm.Scratch{}
	m := &harness.CampaignMetrics{}
	runs, mutants, discarded, reported, failed := 0, 0, 0, 0, 0
	for i := int64(0); i < campaignSeeds; i++ {
		t.begin(lOp)
		out := c.tracedSeed(t, c.base+i, set, scratch)
		t.end()
		if out.panicked {
			reported++
			failed++
			continue
		}
		runs += out.runs
		mutants += out.mutants
		reported += out.reported
		if out.discarded {
			discarded++
		}
		sm := &out.metrics
		sm.DistinctTraces = int64(len(out.traceKeys))
		m.MeteredSeeds++
		m.MeteredRuns += sm.Runs
		m.Exec.Merge(&sm.Exec)
		for len(m.RunsByMaxTier) < len(sm.RunsByMaxTier) {
			m.RunsByMaxTier = append(m.RunsByMaxTier, 0)
		}
		for k, n := range sm.RunsByMaxTier {
			m.RunsByMaxTier[k] += n
		}
		m.DistinctTracesTotal += sm.DistinctTraces
		if sm.DistinctTraces >= 2 {
			m.MultiTraceSeeds++
		}
	}
	t.n.discrepancies += int64(reported)
	return passResult{
		ops:    campaignSeeds,
		failed: failed,
		yield:  m.DistinctTracesTotal,
		replay: campaignReplay(m, runs, mutants, discarded, reported),
	}
}

func (c *campaign) tracedSeed(t *tracer, seedID int64, set bugs.Set, scratch *vm.Scratch) (out seedOutcome) {
	depth := len(t.stack)
	defer func() {
		if r := recover(); r != nil {
			for len(t.stack) > depth {
				t.end()
			}
			out = seedOutcome{panicked: true}
		}
	}()
	out.traceKeys = map[string]bool{}
	run := func(cfg vm.Config, bp *bytecode.Program) *vm.Output {
		cfg.StepLimit = campaignSteps
		cfg.Scratch = scratch
		cfg.CollectStats = true
		cfg.RecordTrace = true
		r := t.vmRun(cfg, bp)
		out.runs++
		sm := &out.metrics
		sm.Runs++
		sm.Exec.Merge(r.Stats)
		tier := 0
		if r.Trace != nil {
			tier = r.Trace.MaxTemp()
			out.traceKeys[r.Trace.Key()] = true
		}
		for len(sm.RunsByMaxTier) <= tier {
			sm.RunsByMaxTier = append(sm.RunsByMaxTier, 0)
		}
		sm.RunsByMaxTier[tier]++
		return r.Output
	}

	t.begin(lFuzz)
	seedProg := fuzz.Generate(fuzz.Options{Seed: seedID})
	t.end()
	t.n.fuzzStmts += int64(ast.ProgramSize(seedProg))
	rnd := rand.New(rand.NewSource(seedID * 7919))

	t.begin(lBytecode)
	seedInfo := sem.MustAnalyze(seedProg)
	seedBP := bytecode.MustCompile(seedInfo)
	t.end()
	t.n.methodsBuilt += int64(len(seedBP.Methods))

	ref := run(c.prof.VMConfigWithBugs(set), seedBP)
	if ref.Term == vm.TermTimeout {
		out.discarded = true
		return out
	}
	if ref.Term == vm.TermCrash {
		out.reported++
		return out
	}
	mcfg := &jonm.Config{
		Min:      c.prof.SynMin,
		Max:      c.prof.SynMax,
		StepMax:  c.prof.SynStepMax,
		Rand:     rnd,
		SeedInfo: seedInfo,
	}
	for i := 0; i < campaignMaxIter; i++ {
		t.begin(lJonm)
		mutant, rep, err := jonm.Mutate(seedProg, mcfg)
		t.end()
		if err != nil {
			panic(err)
		}
		out.mutants++
		t.n.mutants++
		t.n.methodsMutated += int64(len(rep.Mutated))

		t.begin(lBytecode)
		mbp := bytecode.MustCompileDelta(rep.Info, seedBP, rep.Mutated)
		t.end()
		t.n.methodsBuilt += int64(len(rep.Mutated))

		o := run(c.prof.VMConfigWithBugs(set), mbp)
		if o.Term == vm.TermTimeout {
			// A timed-out mutant is a performance finding when the
			// interpreter finishes it.
			if run(c.prof.InterpreterConfig(), mbp).Term != vm.TermTimeout {
				t.begin(lOracle)
				out.reported++
				_ = ast.Print(mutant) // the harness keeps each finding's mutant source
				t.end()
			}
			continue
		}
		t.begin(lOracle)
		if !o.Equivalent(ref) {
			out.reported++
			_ = ast.Print(mutant)
		}
		t.end()
	}
	return out
}
