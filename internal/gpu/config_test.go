package gpu

import "testing"

// TestPresetsResolveAndValidate pins the selectable preset set: every name
// PresetNames advertises resolves, validates, and builds a device.
func TestPresetsResolveAndValidate(t *testing.T) {
	for _, name := range PresetNames() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Preset(%q).Validate: %v", name, err)
		}
		if cfg.Name == "" {
			t.Fatalf("Preset(%q) has no display name", name)
		}
		New(cfg) // panics on an invalid config
	}
	if _, err := Preset("tpu-v4"); err == nil {
		t.Fatal("Preset accepted an unknown name")
	}
	// The empty name is the V100 default the RunConfig zero value relies on.
	def, err := Preset("")
	if err != nil {
		t.Fatalf("Preset(\"\"): %v", err)
	}
	if def.Name != V100().Name {
		t.Fatalf("default preset is %q, want the V100", def.Name)
	}
}

// TestPresetGenerationOrdering sanity-checks the cross-generation scaling
// the heterogeneous-fleet scenarios lean on: peak FLOPS, memory bandwidth
// and HBM capacity all rise monotonically P100 -> V100 -> A100 -> H100.
func TestPresetGenerationOrdering(t *testing.T) {
	gens := []Config{P100(), V100(), A100(), H100()}
	for i := 1; i < len(gens); i++ {
		prev, cur := gens[i-1], gens[i]
		if cur.PeakGFLOPS() <= prev.PeakGFLOPS() {
			t.Errorf("%s peak %.0f GFLOPS not above %s's %.0f",
				cur.Name, cur.PeakGFLOPS(), prev.Name, prev.PeakGFLOPS())
		}
		if cur.DRAMBandwidthGBps <= prev.DRAMBandwidthGBps {
			t.Errorf("%s DRAM bandwidth %.0f not above %s's %.0f",
				cur.Name, cur.DRAMBandwidthGBps, prev.Name, prev.DRAMBandwidthGBps)
		}
		if cur.HBMBytes < prev.HBMBytes {
			t.Errorf("%s HBM %d below %s's %d", cur.Name, cur.HBMBytes, prev.Name, prev.HBMBytes)
		}
	}
}

// TestH100Preset pins the headline H100 numbers (80 GB HBM3, ~66.9 TFLOPS
// fp32 peak from 132 SMs x 128 lanes x 1.83 GHz) so a drive-by edit cannot
// silently turn the fast fleet tier into something else.
func TestH100Preset(t *testing.T) {
	h := H100()
	if h.HBMBytes != 80<<30 {
		t.Fatalf("H100 HBM = %d, want 80 GiB", h.HBMBytes)
	}
	if peak := h.PeakGFLOPS(); peak < 60000 || peak > 70000 {
		t.Fatalf("H100 peak = %.0f GFLOPS, want ~66900", peak)
	}
	if v := V100(); h.NumSMs <= v.NumSMs || h.FP32LanesPerSM <= v.FP32LanesPerSM {
		t.Fatalf("H100 (%d SMs x %d lanes) not wider than V100 (%d x %d)",
			h.NumSMs, h.FP32LanesPerSM, v.NumSMs, v.FP32LanesPerSM)
	}
}
