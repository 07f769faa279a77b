package experiments

import (
	"sagnn"
	"sagnn/internal/distmm"
	"sagnn/internal/gen"
	"sagnn/internal/partition"
)

// AblationRow compares partitioner variants on one graph/k setting.
type AblationRow struct {
	Variant string
	Quality partition.Quality
}

// AblationGVBVolumePhase isolates the contribution of GVB's volume
// refinement phase (the design choice DESIGN.md calls out): the same
// multilevel pipeline with and without the max-send-volume refinement, plus
// the baselines, all evaluated on partition quality metrics.
func AblationGVBVolumePhase(dataset gen.Preset, scaleDiv int, k int, seed int64) ([]AblationRow, error) {
	ds, err := loadDataset(dataset, seed, scaleDiv)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		pt   partition.Partitioner
	}{
		{"random", partition.Random{Seed: seed}},
		{"block", partition.Block{}},
		{"metis", partition.MetisLike{Seed: seed}},
		{"gvb-novol", partition.GVB{Seed: seed, DisableVolumePhase: true}},
		{"gvb", partition.GVB{Seed: seed}},
	}
	out := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		p := v.pt.Partition(ds.G, k)
		out = append(out, AblationRow{Variant: v.name, Quality: partition.Evaluate(v.name, ds.G, p)})
	}
	return out, nil
}

// AblationReplication sweeps the 1.5D replication factor at fixed P for a
// dataset, quantifying the broadcast-vs-allreduce tradeoff of Section 7.2.
func AblationReplication(dataset gen.Preset, scaleDiv int, p int, cs []int, seed int64) ([]RunResult, error) {
	var out []RunResult
	for _, c := range cs {
		if distmm.Spec(string(sagnn.SparsityAware15D), c, p).Skip != "" {
			continue
		}
		r, err := Run(RunConfig{Dataset: dataset, ScaleDiv: scaleDiv, P: p, C: c, Scheme: SchemeSAGVB, Seed: seed})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
