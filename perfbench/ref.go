package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"mcd/internal/sim"
	"mcd/internal/wire"
)

// refPath is the committed reference, relative to the repository root.
const refPath = "perfbench/testdata/ref.json"

// refColdSpecs is how many of the default seed's cold serve-mix specs
// the reference pins: more than a run of the default length sends.
const refColdSpecs = 400

// refFile pins the program's outputs: every grid cell of every split
// (the seed only chooses and orders splits), and the default seed's
// serve-mix bodies.
type refFile struct {
	Seed uint64 `json:"seed"`
	// Window is the grid window the cells were computed at.
	Window uint64 `json:"window"`
	// Cells maps "<fidelity>/<split>/<benchmark>/<config>" to the digest
	// of the cell's canonical result bytes.
	Cells map[string]string `json:"cells"`
	// Exact maps "<split>/<benchmark>/<config>" to the exact cell's CPI
	// and EPI: the reference the sampled workload's error is measured
	// against.
	Exact map[string][2]float64 `json:"exact_cpi_epi"`
	// Serve maps each serve-mix spec's content key to the digest of its
	// result body.
	Serve map[string]string `json:"serve"`
}

//go:embed testdata/ref.json
var refJSON []byte

var reference = func() refFile {
	var r refFile
	if err := json.Unmarshal(refJSON, &r); err != nil || r.Seed != defaultSeed {
		return refFile{}
	}
	return r
}()

// pinned reports whether the committed reference covers a grid: it
// does at the full grid scale.
func pinned(req wire.ExperimentRequest) bool {
	return reference.Window != 0 && req.Window+req.Warmup == reference.Window*3/2
}

// writeRef recomputes every output the reference pins and writes the
// file.
func writeRef(path string) error {
	r := refFile{Seed: defaultSeed, Window: gridWindow, Cells: map[string]string{}, Exact: map[string][2]float64{}, Serve: map[string]string{}}
	for _, fidelity := range []string{sim.FidelityExact, sim.FidelitySampled} {
		step := int(gridWindow / 800)
		for d := -splitSteps * step; d <= splitSteps*step; d += step {
			req := gridAt(gridWindow, d, fidelity)
			res, err := wire.RunExperimentRequest(req.Options(), req)
			if err != nil {
				return err
			}
			cells, err := gridCells(res)
			if err != nil {
				return err
			}
			for _, c := range cells {
				r.Cells[cellRefKey(fidelity, d, c.label)] = digest(c.body)
				if fidelity == sim.FidelityExact {
					r.Exact[exactRefKey(d, c.label)] = [2]float64{c.res.CPI(), c.res.EPI()}
				}
			}
			fmt.Fprintf(os.Stderr, "reference: %s grid at split %d\n", fidelity, d)
		}
	}
	stored, cold, err := specs(defaultSeed, refColdSpecs)
	if err != nil {
		return err
	}
	for _, spec := range append(stored, cold...) {
		key, err := spec.Key()
		if err != nil {
			return err
		}
		body, _, err := spec.RunCachedBytes(nil)
		if err != nil {
			return err
		}
		r.Serve[key] = digest(body)
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
