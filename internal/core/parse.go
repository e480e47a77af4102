package core

import (
	"fmt"
	"strings"
)

// ParseAllocator resolves an allocator name the way every CLI spells it:
// the weight-based engines by lowercase name ("minimax", "minimax-euclid",
// "ssp", "mst") or an index-based scheme/resolver pair ("DM/D", "HCAM/F").
// seed drives each allocator's randomized choices. The third argument is
// ignored: it was the worker count of the engine's sweep pool, which is gone,
// and stays in the signature only because the frozen bench/ passes it.
func ParseAllocator(name string, seed int64, _ int) (Allocator, error) {
	switch strings.ToLower(name) {
	case "minimax":
		return &Minimax{Seed: seed}, nil
	case "minimax-euclid":
		return &Minimax{Euclid: true, Seed: seed}, nil
	case "ssp":
		return &SSP{Seed: seed}, nil
	case "mst":
		return &MST{Seed: seed}, nil
	}
	scheme, resolver, ok := strings.Cut(name, "/")
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
	return NewIndexBased(scheme, resolver, seed)
}
