package main

import (
	"encoding/json"
	"testing"

	"artemis/internal/bugs"
	"artemis/internal/harness"
	"artemis/internal/jit"
	"artemis/internal/lang/parser"
	"artemis/internal/vm"
)

// The traced run is only trustworthy if wrapping the JIT changes
// nothing the VM observes: outputs, JIT traces and execution stats
// (including the per-pass counters the VM reads through
// vm.CompileStatsProvider) must match the unwrapped run exactly.
func TestWrappedRunMatchesUnwrapped(t *testing.T) {
	forceAll := &vm.ForcedPolicy{
		Tier:       2,
		Choice:     func(string, int64) vm.ForceChoice { return vm.ForceCompile },
		DisableOSR: true,
	}
	cases := []struct {
		name   string
		src    string
		bugs   []string
		policy vm.Policy
		gc     int64
		check  func(*vm.Result) bool
	}{
		{
			name: "osr",
			src: `class T {
				void main() {
					long acc = 1;
					for (int i = 0; i < 100000; i++) { acc = acc * 31 + i; acc %= 94906249L; }
					print(acc);
				}
			}`,
			check: func(r *vm.Result) bool { return r.OSREntries > 0 },
		},
		{
			name: "deopt",
			src: `class T {
				boolean z = false;
				int l = 0;
				void g() { l += 2; }
				void o() { if (z) { return; } g(); }
				void p() { z = true; for (int u = 0; u < 9676; u++) { o(); } z = false; o(); print(l); }
				void main() { p(); p(); }
			}`,
			check: func(r *vm.Result) bool { return r.Deopts > 0 },
		},
		{
			name: "compile-crash",
			src: `class T {
				int go(int a, int b, int c, int d) {
					int acc = 0;
					for (int i = 0; i < 3; i++) {
						for (int j = 0; j < 3; j++) {
							for (int k = 0; k < 3; k++) { acc += helper(a + i, b + j); }
						}
					}
					return acc + c + d;
				}
				int helper(int x, int y) { return x * y + 1; }
				void main() { print(go(1, 2, 3, 4)); }
			}`,
			bugs:   []string{"hs-loopopt-nest"},
			policy: forceAll,
			check:  func(r *vm.Result) bool { return r.Output.Term == vm.TermCrash },
		},
		{
			name: "gc-crash",
			src: `class T {
				long total = 0;
				void main() {
					int[] a = new int[8];
					for (int r = 0; r < 500; r++) {
						a[0] = r;
						long[] junk = new long[8];
						total += a[0] + (int)junk[0];
					}
					print(total);
				}
			}`,
			bugs:   []string{"oj-gc-barrier"},
			policy: forceAll,
			gc:     64,
			check:  func(r *vm.Result) bool { return r.Output.Term == vm.TermCrash },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := parser.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			bp := harness.Compile(prog)
			cfg := func() vm.Config {
				return vm.Config{
					JIT:             jit.New(jit.Options{MaxTier: 2, Bugs: bugs.NewSet(tc.bugs...)}),
					EntryThresholds: []int64{100, 1000},
					OSRThresholds:   []int64{100, 1000},
					Policy:          tc.policy,
					GCInterval:      tc.gc,
					RecordTrace:     true,
					CollectStats:    true,
				}
			}
			plain := vm.Run(cfg(), bp)
			tr := newTracer()
			wrapped := tr.vmRun(cfg(), bp)

			if !tc.check(plain) {
				t.Fatalf("program does not exercise its case: term %v, osr %d, deopts %d", plain.Output.Term, plain.OSREntries, plain.Deopts)
			}
			if plain.Output.Key() != wrapped.Output.Key() {
				t.Errorf("output %s, wrapped %s", plain.Output.Key(), wrapped.Output.Key())
			}
			if plain.Trace.Key() != wrapped.Trace.Key() {
				t.Errorf("trace %s, wrapped %s", plain.Trace.Key(), wrapped.Trace.Key())
			}
			a, _ := json.Marshal(plain.Stats)
			b, _ := json.Marshal(wrapped.Stats)
			if string(a) != string(b) {
				t.Errorf("stats differ:\n plain   %s\n wrapped %s", a, b)
			}
			if tr.n.compilations+tr.n.compileFailures == 0 {
				t.Error("the wrapped JIT saw no compilations")
			}
			if tr.n.compiledSteps != plain.Stats.CompiledSteps {
				t.Errorf("counted %d compiled steps, VM reports %d", tr.n.compiledSteps, plain.Stats.CompiledSteps)
			}
			if len(tr.stack) != 0 {
				t.Errorf("%d spans left open", len(tr.stack))
			}
		})
	}
}
