package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"artemis/internal/bytecode"
	"artemis/internal/vm"
)

// layer names one traced module boundary. Spans nest: a layer's self
// time is its span time minus the time its direct child spans cover.
type layer int

const (
	lOp         layer = iota // one op; self time is harness glue
	lFuzz                    // fuzz.Generate
	lJonm                    // jonm.Mutate
	lBytecode                // sem analysis + bytecode compile / CompileDelta
	lVMRun                   // vm.Run: interpreter, GC and runtime
	lVMCall                  // Env.CallMethod from compiled code back into the VM
	lJITCompile              // JITCompiler.Compile
	lJITExec                 // CompiledCode.Run
	lOracle                  // output comparison and discrepancy classification
	lReduce                  // reduce.ReduceChecked
	lKeep                    // one keep-predicate evaluation
	lBlame                   // blame.Localize
	nLayers
)

var layerNames = [nLayers]string{
	"op", "fuzz.generate", "jonm.mutate", "bytecode.compile", "vm.run", "vm.call",
	"jit.compile", "jit.exec", "harness.oracle", "reduce", "reduce.keep", "blame",
}

// recordDepth bounds which spans are kept individually: ops and the
// stage spans directly under them. Deeper spans (compiled-code entries
// and VM re-entries number in the millions) are only aggregated.
const recordDepth = 2

type frame struct {
	l     layer
	start time.Duration // since the tracer's epoch
	child time.Duration
	rec   int // index into spans, or -1
}

// span is one recorded interval, kept in memory and written out when
// the benchmark ends.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"`
}

// counts are the exact work counters recorded at the same boundaries
// as the spans.
type counts struct {
	vmRuns, vmTimeouts, vmSteps, vmGC, vmDeopts        int64
	compilations, compileFailures, codeInstrs, optsApp int64
	execEntries, compiledSteps                         int64
	fuzzStmts, mutants, methodsMutated, methodsBuilt   int64
	discrepancies, keepEvals, keepAccepted             int64
	blameProbes, blameLocalized                        int64
}

// tracer collects spans and counters for one goroutine's traced work.
type tracer struct {
	epoch time.Time
	stack []frame
	total [nLayers]time.Duration
	self  [nLayers]time.Duration
	spans []span
	n     counts
	env   *tracedEnv // wrapper of the VM last seen by compiled code
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(l layer) {
	rec := -1
	if len(t.stack) < recordDepth {
		parent := -1
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1].rec
		}
		rec = len(t.spans)
		t.spans = append(t.spans, span{Name: layerNames[l], Parent: parent})
	}
	// time.Since reads only the monotonic clock, about half the cost
	// of time.Now; spans number in the tens of millions.
	t.stack = append(t.stack, frame{l: l, start: time.Since(t.epoch), rec: rec})
}

func (t *tracer) end() {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := time.Since(t.epoch) - f.start
	t.total[f.l] += d
	t.self[f.l] += d - f.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	if f.rec >= 0 {
		s := &t.spans[f.rec]
		s.Start = f.start.Nanoseconds()
		s.Dur = d.Nanoseconds()
		s.Self = (d - f.child).Nanoseconds()
	}
}

// vmRun executes one VM run with the JIT wrapped, inside a vm.run
// span, and counts its work.
func (t *tracer) vmRun(cfg vm.Config, bp *bytecode.Program) *vm.Result {
	if cfg.JIT != nil {
		cfg.JIT = tracedJIT{inner: cfg.JIT, t: t}
	}
	depth := len(t.stack)
	t.begin(lVMRun)
	res := vm.Run(cfg, bp)
	// A VM crash is a panic the VM recovers from; spans it unwound
	// through were never ended, so end them now.
	for len(t.stack) > depth {
		t.end()
	}
	t.n.vmRuns++
	if res.Output.Term == vm.TermTimeout {
		t.n.vmTimeouts++
	}
	t.n.vmSteps += res.Steps
	t.n.vmGC += res.GCRuns
	t.n.vmDeopts += res.Deopts
	return res
}

// writeSpans writes the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// VM/JIT interface wrappers
// ---------------------------------------------------------------------------

// tracedJIT wraps the JIT so compilation, compiled-code execution and
// re-entry into the VM each get their own span; what remains of a
// vm.run span is the interpreter, GC and runtime.
type tracedJIT struct {
	inner vm.JITCompiler
	t     *tracer
}

func (j tracedJIT) MaxTier() int { return j.inner.MaxTier() }

func (j tracedJIT) Compile(req vm.CompileRequest) (vm.CompiledCode, *vm.CompileError) {
	j.t.begin(lJITCompile)
	code, err := j.inner.Compile(req)
	j.t.end()
	if err != nil || code == nil {
		j.t.n.compileFailures++
		return code, err
	}
	j.t.n.compilations++
	j.t.n.codeInstrs += int64(code.Size())
	tc := tracedCode{inner: code, t: j.t}
	// The VM type-asserts CompileStatsProvider; forward it only when
	// the wrapped code has it, so stats collection sees the same thing.
	if p, ok := code.(vm.CompileStatsProvider); ok {
		if cs := p.CompileStats(); cs != nil {
			for _, n := range cs.OptsByPass {
				j.t.n.optsApp += n
			}
		}
		return tracedCodeStats{tc, p}, nil
	}
	return tc, nil
}

type tracedCode struct {
	inner vm.CompiledCode
	t     *tracer
}

func (c tracedCode) Run(env vm.Env, args []int64) vm.ExecResult {
	t := c.t
	t.n.execEntries++
	// Reuse the wrapper while the VM stays the same, so an entry into
	// compiled code does not allocate.
	if t.env == nil || t.env.Env != env {
		t.env = &tracedEnv{Env: env, t: t}
	}
	t.begin(lJITExec)
	res := c.inner.Run(t.env, args)
	t.end()
	return res
}

func (c tracedCode) Tier() int   { return c.inner.Tier() }
func (c tracedCode) IsOSR() bool { return c.inner.IsOSR() }
func (c tracedCode) Size() int   { return c.inner.Size() }

type tracedCodeStats struct {
	tracedCode
	p vm.CompileStatsProvider
}

func (c tracedCodeStats) CompileStats() *vm.CompileStats { return c.p.CompileStats() }

// tracedEnv is the VM as compiled code sees it; calls back into the VM
// are spans of their own, and step charges are counted.
type tracedEnv struct {
	vm.Env
	t *tracer
}

func (e *tracedEnv) CallMethod(method int, args []int64) (int64, *vm.Unwind) {
	e.t.begin(lVMCall)
	v, u := e.Env.CallMethod(method, args)
	e.t.end()
	return v, u
}

func (e *tracedEnv) Step(n int64) *vm.Unwind {
	e.t.n.compiledSteps += n
	return e.Env.Step(n)
}
