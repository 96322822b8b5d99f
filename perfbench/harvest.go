package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"artemis/internal/fuzz"
	"artemis/internal/harness"
	"artemis/internal/lang/ast"
	"artemis/internal/profiles"
)

// The committed triage inputs come from this campaign seed range.
// Harvesting another range (-from/-to) draws a held-out set.
const (
	harvestFrom = 0
	harvestTo   = 40
)

var harvestProfiles = []string{"hotspotlike", "openj9like"}

// harvest validates fuzzer seeds [from, to) on each buggy profile as
// a campaign does (same per-seed RNG, MAX_ITER and step limit) and
// writes the unreduced reproducer of every distinct crash or
// mis-compilation signature, in discovery order, with inputs.json
// recording its provenance. Performance findings have no keep
// predicate and are skipped.
func harvest(dir string, from, to int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	man := manifest{Profiles: harvestProfiles, SeedFrom: from, SeedTo: to, MaxIter: campaignMaxIter, StepLimit: triageSteps}
	for _, name := range harvestProfiles {
		prof, err := profiles.Get(name)
		if err != nil {
			return err
		}
		seen := map[string]bool{}
		for id := from; id < to; id++ {
			seedProg := fuzz.Generate(fuzz.Options{Seed: id})
			res := harness.Validate(seedProg, id, harness.Options{
				Profile:   prof,
				MaxIter:   campaignMaxIter,
				StepLimit: triageSteps,
				Buggy:     true,
				Rand:      rand.New(rand.NewSource(id * 7919)),
			})
			for i, f := range res.Findings {
				mode := map[harness.FindingKind]string{harness.CrashFinding: "crash", harness.Miscompilation: "diff"}[f.Kind]
				if mode == "" || seen[f.Signature] {
					continue
				}
				seen[f.Signature] = true
				src := res.MutantSources[i]
				if src == "" {
					src = ast.Print(seedProg)
				}
				in := triageInput{
					File:      fmt.Sprintf("%s-s%d-m%d.mj", name, id, f.MutantID),
					Profile:   name,
					Seed:      id,
					Mutant:    f.MutantID,
					Mode:      mode,
					Signature: f.Signature,
				}
				if err := os.WriteFile(filepath.Join(dir, in.File), []byte(src), 0o644); err != nil {
					return err
				}
				man.Inputs = append(man.Inputs, in)
				fmt.Printf("harvest: %s %s\n", in.File, f.Signature)
			}
		}
	}
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "inputs.json"), append(b, '\n'), 0o644)
}
