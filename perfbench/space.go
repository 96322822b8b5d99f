package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"

	"artemis/internal/fuzz"
	"artemis/internal/harness"
	"artemis/internal/lang/ast"
	"artemis/internal/profiles"
	"artemis/internal/vm"
)

const (
	// spaceDraws is how many fuzzer programs one workload seed draws.
	spaceDraws = 380
	// spaceScreenSteps is the screening budget: a drawn program is kept
	// only if its default run finishes within it (§4.3 discards
	// over-budget programs). Without it one program can take minutes.
	spaceScreenSteps = 20_000
	// spaceMaxMethods caps the toggled methods at cmd/space's default.
	spaceMaxMethods = 6
	// spaceWorkers is fixed for the same reason as campaignWorkers.
	spaceWorkers = 1
	// spaceWarmupSeed is the fuzzer seed of the warm-up program.
	spaceWarmupSeed = 3
)

type spaceInput struct {
	prog    *ast.Program
	methods []string
}

// space enumerates the whole compilation space of every screened
// program on the correct hotspotlike VM, as cmd/space does by default.
type space struct {
	prof      *profiles.Profile
	inputs    []spaceInput
	discarded int
}

func newSpace(seed int64) (workload, error) {
	prof, err := profiles.Get("hotspotlike")
	if err != nil {
		return nil, err
	}
	s := &space{prof: prof}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < spaceDraws; i++ {
		prog := fuzz.Generate(fuzz.Options{Seed: rng.Int63n(1 << 40)})
		cfg := prof.VMConfig(false)
		cfg.StepLimit = spaceScreenSteps
		if vm.Run(cfg, harness.Compile(prog)).Output.Term == vm.TermTimeout {
			s.discarded++
			continue
		}
		s.inputs = append(s.inputs, spaceInput{prog: prog, methods: spaceMethods(prog)})
	}
	if len(s.inputs) == 0 {
		return nil, fmt.Errorf("space: every drawn program exceeds the screening budget")
	}
	return s, nil
}

// spaceMethods is cmd/space's default method set: the first
// spaceMaxMethods method names in sorted order.
func spaceMethods(p *ast.Program) []string {
	var ms []string
	for _, m := range p.Class.Methods {
		ms = append(ms, m.Name)
	}
	sort.Strings(ms)
	if len(ms) > spaceMaxMethods {
		ms = ms[:spaceMaxMethods]
	}
	return ms
}

func (s *space) describe() string {
	return fmt.Sprintf("profile=%s programs=%d screened_out=%d of %d draws screen_steps=%d max_methods=%d workers=%d",
		s.prof.Name, len(s.inputs), s.discarded, spaceDraws, spaceScreenSteps, spaceMaxMethods, spaceWorkers)
}

func (s *space) warmup() {
	p := fuzz.Generate(fuzz.Options{Seed: spaceWarmupSeed})
	harness.EnumerateSpaceParallel(s.prof, p, spaceMethods(p), false, spaceWorkers)
}

// spaceTally folds choices into the pass result. Mask 0 interprets
// every method: it is the reference each other choice must match.
type spaceTally struct {
	h      hash.Hash
	ops    int
	failed int
	traces int64
}

func (st *spaceTally) program(outputs []*vm.Output, traces []*vm.JITTrace) {
	keys := map[string]bool{}
	for i, o := range outputs {
		fmt.Fprintf(st.h, "%s %s\n", o.Key(), traces[i].Key())
		keys[traces[i].Key()] = true
		if !o.Equivalent(outputs[0]) {
			st.failed++
		}
	}
	st.ops += len(outputs)
	st.traces += int64(len(keys))
}

func (st *spaceTally) result(programs int) passResult {
	d := hex.EncodeToString(st.h.Sum(nil))[:32]
	return passResult{
		ops:    st.ops,
		failed: st.failed,
		yield:  st.traces,
		digest: d,
		replay: d,
		exact:  map[string]int64{"distinct_traces": st.traces, "programs": int64(programs)},
	}
}

func (s *space) pass(c *calibrator) passResult {
	st := &spaceTally{h: sha256.New()}
	for _, in := range s.inputs {
		choices := harness.EnumerateSpaceParallel(s.prof, in.prog, in.methods, false, spaceWorkers)
		outs := make([]*vm.Output, len(choices))
		traces := make([]*vm.JITTrace, len(choices))
		for i, c := range choices {
			outs[i], traces[i] = c.Output, c.Trace
		}
		st.program(outs, traces)
		c.tick()
	}
	return st.result(len(s.inputs))
}

// tracedPass replays EnumerateSpaceParallel with one worker: compile
// the program once, then one fresh VM per mask in mask order.
func (s *space) tracedPass(t *tracer) passResult {
	st := &spaceTally{h: sha256.New()}
	scratch := &vm.Scratch{}
	for _, in := range s.inputs {
		t.begin(lBytecode)
		bp := harness.Compile(in.prog)
		t.end()
		t.n.methodsBuilt += int64(len(bp.Methods))
		total := 1 << len(in.methods)
		outs := make([]*vm.Output, total)
		traces := make([]*vm.JITTrace, total)
		for mask := 0; mask < total; mask++ {
			t.begin(lOp)
			forced := map[string]vm.ForceChoice{}
			for i, m := range in.methods {
				if mask&(1<<i) != 0 {
					forced[m] = vm.ForceCompile
				} else {
					forced[m] = vm.ForceInterpret
				}
			}
			cfg := s.prof.VMConfig(false)
			cfg.Policy = &vm.ForcedPolicy{Tier: s.prof.MaxTier, Methods: forced, DisableOSR: true}
			cfg.Scratch = scratch
			cfg.RecordTrace = true
			cfg.CollectStats = true
			res := t.vmRun(cfg, bp)
			outs[mask], traces[mask] = res.Output, res.Trace
			t.begin(lOracle)
			if !res.Output.Equivalent(outs[0]) {
				t.n.discrepancies++
			}
			t.end()
			t.end()
		}
		st.program(outs, traces)
	}
	return st.result(len(s.inputs))
}
