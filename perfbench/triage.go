package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"

	"artemis/internal/blame"
	"artemis/internal/bytecode"
	"artemis/internal/harness"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/profiles"
	"artemis/internal/reduce"
	"artemis/internal/vm"
)

// triageSteps is the one step limit triage shares with the harvest
// that produced its inputs: every keep evaluation and blame probe runs
// under it. The workload is sized by it and by the harvested seed
// range, never by picking inputs for their cost.
const triageSteps = 4_000_000

// manifest is triage/inputs.json: the harvest's parameters and the
// provenance of every input.
type manifest struct {
	Profiles  []string      `json:"profiles"`
	SeedFrom  int64         `json:"seed_from"`
	SeedTo    int64         `json:"seed_to"`
	MaxIter   int           `json:"max_iter"`
	StepLimit int64         `json:"step_limit"`
	Inputs    []triageInput `json:"inputs"`
}

// triageInput is one distinct finding's unreduced reproducer.
type triageInput struct {
	File      string `json:"file"`
	Profile   string `json:"profile"`
	Seed      int64  `json:"seed"`
	Mutant    int    `json:"mutant"` // -1: the seed program itself
	Mode      string `json:"mode"`   // mjreduce -mode: crash or diff
	Signature string `json:"signature"`

	prog *ast.Program
	prof *profiles.Profile
	keep reduce.Predicate // harness.KeepConfig.ForMode(Mode)
}

// triage reduces and localizes every committed finding, in manifest
// order, as `mjreduce -blame` does, with the campaign's reduction
// budget. Its inputs are the committed set, so it ignores the workload
// seed.
type triage struct {
	inputs      []*triageInput
	warm        *triageInput
	reproducing int // inputs whose keep predicate holds at set-up
}

func newTriage(dir string) (workload, error) {
	fsys := os.DirFS(dir)
	raw, err := fs.ReadFile(fsys, "inputs.json")
	if err != nil {
		return nil, fmt.Errorf("triage inputs: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("triage inputs.json: %w", err)
	}
	if man.StepLimit != triageSteps {
		return nil, fmt.Errorf("triage inputs were harvested at step limit %d, triage runs at %d", man.StepLimit, triageSteps)
	}
	if len(man.Inputs) == 0 {
		return nil, fmt.Errorf("triage inputs.json lists no inputs")
	}
	tr := &triage{}
	for i := range man.Inputs {
		in := &man.Inputs[i]
		src, err := fs.ReadFile(fsys, in.File)
		if err != nil {
			return nil, fmt.Errorf("triage input: %w", err)
		}
		if in.prog, err = parser.Parse(string(src)); err != nil {
			return nil, fmt.Errorf("triage input %s: %w", in.File, err)
		}
		if in.prof, err = profiles.Get(in.Profile); err != nil {
			return nil, fmt.Errorf("triage input %s: %w", in.File, err)
		}
		kc := harness.KeepConfig{Profile: in.prof, Bugs: in.prof.BugSet(), StepLimit: triageSteps}
		if in.keep, err = kc.ForMode(in.Mode); err != nil {
			return nil, fmt.Errorf("triage input %s: %w", in.File, err)
		}
		// Screening: check on this build that the input still triggers
		// its finding. An input that does not is still triaged, and
		// counts as a failed op.
		if in.keep(in.prog) {
			tr.reproducing++
		}
		tr.inputs = append(tr.inputs, in)
		if tr.warm == nil || ast.ProgramSize(in.prog) < ast.ProgramSize(tr.warm.prog) {
			tr.warm = in
		}
	}
	return tr, nil
}

func (tr *triage) describe() string {
	return fmt.Sprintf("inputs=%d reproducing=%d step_limit=%d reduce_budget=%d blame_budget=%d",
		len(tr.inputs), tr.reproducing, triageSteps, harness.DefaultReduceBudget, blame.DefaultBudget)
}

// capped limits keep to the campaign's per-finding evaluation budget;
// once spent, every candidate is rejected. c ticks between evaluations.
func capped(keep reduce.Predicate, c *calibrator) reduce.Predicate {
	left := harness.DefaultReduceBudget
	return func(p *ast.Program) bool {
		if left <= 0 {
			return false
		}
		left--
		c.tick()
		return keep(p)
	}
}

// triageOutcome is one op's deterministic result.
type triageOutcome struct {
	reduced *ast.Program // nil when keep failed on the input
	blame   *blame.Result
}

func (o triageOutcome) failed() bool {
	return o.reduced == nil || o.blame == nil ||
		o.blame.PassVerdict == blame.VerdictNotReproduced || o.blame.PassVerdict == blame.VerdictBudget
}

func (tr *triage) op(in *triageInput, c *calibrator) triageOutcome {
	small, ok := reduce.ReduceChecked(in.prog, capped(in.keep, c), reduce.Options{})
	if !ok {
		return triageOutcome{}
	}
	return triageOutcome{reduced: small, blame: localize(small, in.prof, in.Mode)}
}

// localize is cmd/mjreduce's -blame step: the symptom is any crash, or
// for diff mode any divergence from the interpreted reference. It
// returns nil when that reference times out.
func localize(p *ast.Program, prof *profiles.Profile, mode string) *blame.Result {
	var symptom blame.Symptom
	if mode == "crash" {
		symptom = func(out *vm.Output) bool { return out.Term == vm.TermCrash }
	} else {
		intCfg := prof.InterpreterConfig()
		intCfg.StepLimit = triageSteps
		ref := vm.Run(intCfg, harness.Compile(p)).Output
		if ref.Term == vm.TermTimeout {
			return nil
		}
		symptom = func(out *vm.Output) bool { return out.Term != vm.TermTimeout && !out.Equivalent(ref) }
	}
	return blame.Localize(p, symptom, blame.Config{Profile: prof, Bugs: prof.BugSet(), StepLimit: triageSteps})
}

func (tr *triage) warmup() { tr.op(tr.warm, nil) }

// result digests outcomes in manifest order.
func (tr *triage) result(outs []triageOutcome) passResult {
	r := passResult{ops: len(outs), exact: map[string]int64{}}
	parts := make([]string, 0, 2*len(outs))
	for i, o := range outs {
		in := tr.inputs[i]
		if o.failed() {
			r.failed++
		}
		if o.reduced == nil {
			parts = append(parts, in.File, "keep(input) does not hold")
			r.notes = append(r.notes, in.File+": keep(input) does not hold")
			continue
		}
		size := int64(ast.ProgramSize(o.reduced))
		r.yield += int64(ast.ProgramSize(in.prog)) - size
		r.exact["reduced_stmts"] += size
		b, err := json.Marshal(o.blame)
		if err != nil {
			fatal(err)
		}
		if o.blame != nil && o.blame.PassVerdict == blame.VerdictLocalized {
			r.exact["localized"]++
		}
		parts = append(parts, in.File, ast.Print(o.reduced), string(b))
		r.notes = append(r.notes, fmt.Sprintf("%s: %d -> %d stmts, blame %s", in.File, ast.ProgramSize(in.prog), size, b))
	}
	r.digest = digestOf(parts...)
	r.replay = r.digest
	return r
}

func (tr *triage) pass(c *calibrator) passResult {
	outs := make([]triageOutcome, len(tr.inputs))
	for i, in := range tr.inputs {
		outs[i] = tr.op(in, c)
		c.tick()
	}
	return tr.result(outs)
}

// tracedPass runs the same ops with harness.KeepConfig's predicates
// replayed on the wrapped JIT; blame.Localize builds its VMs itself,
// so its probes show as one blame span.
func (tr *triage) tracedPass(t *tracer) passResult {
	outs := make([]triageOutcome, len(tr.inputs))
	for i, in := range tr.inputs {
		t.begin(lOp)
		t.begin(lReduce)
		small, ok := reduce.ReduceChecked(in.prog, capped(tracedKeep(t, in), nil), reduce.Options{})
		t.end()
		if ok {
			t.begin(lBlame)
			res := localize(small, in.prof, in.Mode)
			t.end()
			outs[i] = triageOutcome{reduced: small, blame: res}
			if res != nil {
				t.n.blameProbes += int64(res.Runs)
				if res.PassVerdict == blame.VerdictLocalized {
					t.n.blameLocalized++
				}
			}
		}
		t.end()
	}
	return tr.result(outs)
}

// tracedKeep is harness.KeepConfig's Crash or Diff predicate: compile
// the candidate, run it on the seeded-defect VM (and, for diff, the
// interpreter) under triageSteps.
func tracedKeep(t *tracer, in *triageInput) reduce.Predicate {
	return func(p *ast.Program) bool {
		t.begin(lKeep)
		t.n.keepEvals++
		t.begin(lBytecode)
		bp := harness.Compile(p)
		t.end()
		t.n.methodsBuilt += int64(len(bp.Methods))
		ok := keepOutcome(t, in, bp)
		if ok {
			t.n.keepAccepted++
		}
		t.end()
		return ok
	}
}

func keepOutcome(t *tracer, in *triageInput, bp *bytecode.Program) bool {
	cfg := in.prof.VMConfigWithBugs(in.prof.BugSet())
	cfg.StepLimit = triageSteps
	jit := t.vmRun(cfg, bp).Output
	if in.Mode == "crash" {
		return jit.Term == vm.TermCrash
	}
	intCfg := in.prof.InterpreterConfig()
	intCfg.StepLimit = triageSteps
	interp := t.vmRun(intCfg, bp).Output
	if jit.Term == vm.TermTimeout || interp.Term == vm.TermTimeout {
		return false
	}
	return !jit.Equivalent(interp)
}
