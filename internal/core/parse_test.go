package core

import "testing"

// TestParseAllocatorNames is the name table every CLI shares (gridtool
// decluster/layout/simulate/viz/parallel, the campaign's scheme axis, the
// repo benchmark): the spelling accepted on the left resolves to the
// allocator named on the right, and everything else is refused.
func TestParseAllocatorNames(t *testing.T) {
	for in, want := range map[string]string{
		"minimax":        "MiniMax",
		"MINIMAX":        "MiniMax",
		"minimax-euclid": "MiniMax(euclid)",
		"ssp":            "SSP",
		"mst":            "MST",
		"DM/D":           "DM/D",
		"FX/R":           "FX/R",
		"HCAM/F":         "HCAM/F",
		"HCAM/A":         "HCAM/A",
		"GDM/F":          "GDM/F",
	} {
		alg, err := ParseAllocator(in, 1, 0)
		if err != nil {
			t.Errorf("ParseAllocator(%q): %v", in, err)
			continue
		}
		if alg.Name() != want {
			t.Errorf("ParseAllocator(%q).Name() = %q, want %q", in, alg.Name(), want)
		}
	}
	for _, bad := range []string{"", "nope", "DM", "DM/Z", "XX/D", "DM/X/Y"} {
		if _, err := ParseAllocator(bad, 1, 0); err == nil {
			t.Errorf("ParseAllocator(%q) accepted", bad)
		}
	}
}
