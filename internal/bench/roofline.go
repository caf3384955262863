package bench

import (
	"fmt"
	"sort"

	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
)

// RooflinePoint places one operation class on the device roofline:
// arithmetic intensity (flops per DRAM byte) against achieved GFLOPS, with
// the bound that limits it. The paper's takeaway that "GNN training is
// primarily memory bound" is this analysis in prose.
type RooflinePoint struct {
	Class gpu.OpClass
	// Intensity is flops / DRAM bytes.
	Intensity float64
	// AchievedGFLOPS is the class's measured rate.
	AchievedGFLOPS float64
	// RoofGFLOPS is min(peak, intensity * bandwidth): the class's ceiling.
	RoofGFLOPS float64
	// MemoryBound reports whether the bandwidth roof is the binding one.
	MemoryBound bool
	// Seconds is the class's kernel time (for weighting).
	Seconds float64
}

// Roofline computes per-class roofline positions for one characterization
// run on the given device config.
func Roofline(res core.RunResult, cfg gpu.Config) []RooflinePoint {
	peak := cfg.PeakGFLOPS()
	bwGBps := cfg.DRAMBandwidthGBps
	var out []RooflinePoint
	for _, c := range gpu.AllOpClasses() {
		cs, ok := res.PerClass[c]
		if !ok || cs.Seconds == 0 || cs.Flops == 0 {
			continue
		}
		var dramBytes float64
		// L2 misses fill from DRAM.
		dramBytes = float64(cs.L2Misses) * float64(cfg.L2LineBytes)
		if dramBytes == 0 {
			dramBytes = 1
		}
		p := RooflinePoint{
			Class:          c,
			Intensity:      float64(cs.Flops) / dramBytes,
			AchievedGFLOPS: cs.GFLOPS(),
			Seconds:        cs.Seconds,
		}
		bwRoof := p.Intensity * bwGBps
		p.RoofGFLOPS = peak
		if bwRoof < peak {
			p.RoofGFLOPS = bwRoof
			p.MemoryBound = true
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	return out
}

// rooflineFigure is the roofline table of one workload on its GPU preset.
func rooflineFigure(s Study) (Figure, error) {
	r, err := core.Run(s.RunConfig)
	if err != nil {
		return Figure{}, err
	}
	cfg, err := gpu.Preset(s.GPU)
	if err != nil {
		return Figure{}, err
	}
	return rooflineTable(r.Label(), Roofline(r, cfg), cfg), nil
}

func rooflineTable(label string, points []RooflinePoint, cfg gpu.Config) Figure {
	f := Figure{ID: "roofline", Title: fmt.Sprintf("%s roofline on %s (peak %.0f GFLOPS, %.0f GB/s)",
		label, cfg.Name, cfg.PeakGFLOPS(), cfg.DRAMBandwidthGBps),
		Columns: []Column{{"op", -12, "%s", false}, {"flops/byte", 12, "%.2f", false}, {"achieved", 12, "%.0f", false},
			{"roof", 12, "%.0f", false}, {"bound", 8, "%s", false}}}
	var memSeconds, total float64
	for _, p := range points {
		bound := "compute"
		if p.MemoryBound {
			bound = "memory"
			memSeconds += p.Seconds
		}
		total += p.Seconds
		f.add(p.Class, p.Intensity, p.AchievedGFLOPS, p.RoofGFLOPS, bound)
	}
	if total > 0 {
		f.Notes = []string{fmt.Sprintf("memory-bound share of kernel time: %.1f%%", 100*memSeconds/total)}
	}
	return f
}
