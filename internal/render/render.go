// Package render draws 2-D grid files — the pictures of the paper's
// Figure 2 — as SVG or ASCII. The SVG view shows the linear scales, the
// bucket regions (merged regions spanning several cells are visible as
// larger boxes) and optionally the data points and a disk-coloured
// declustering; the ASCII view is a quick terminal sketch of the directory.
package render

import (
	"fmt"
	"strings"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// SVGOptions controls the SVG rendering.
type SVGOptions struct {
	// Width is the drawing width in pixels (height follows the domain's
	// aspect ratio). Default 640.
	Width int
	// Points draws every record as a small dot.
	Points bool
	// Allocation, when non-nil, fills each bucket with a colour keyed by
	// its disk so a declustering can be inspected visually.
	Allocation *core.Allocation
}

// diskPalette cycles distinct fills for the allocation view.
var diskPalette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
	"#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
	"#fabfd2", "#b6992d", "#499894", "#79706e",
}

// SVG renders a 2-dimensional grid file. It returns an error for other
// dimensionalities.
func SVG(f *gridfile.File, opts SVGOptions) (string, error) {
	if f.Dims() != 2 {
		return "", fmt.Errorf("render: SVG needs a 2-D grid file, got %d-D", f.Dims())
	}
	width := opts.Width
	if width <= 0 {
		width = 640
	}
	dom := f.Domain()
	scaleX := float64(width) / dom[0].Length()
	height := int(dom[1].Length() * scaleX)
	scaleY := float64(height) / dom[1].Length()

	x := func(v float64) float64 { return (v - dom[0].Lo) * scaleX }
	// SVG y grows downward; flip so the domain's y grows upward.
	y := func(v float64) float64 { return float64(height) - (v-dom[1].Lo)*scaleY }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)

	// Bucket regions: fill by disk when an allocation is supplied, and
	// outline every region so merged buckets are visible.
	views := f.Buckets()
	for _, v := range views {
		fill := "none"
		if opts.Allocation != nil {
			d := opts.Allocation.Assign[v.Index]
			fill = diskPalette[d%len(diskPalette)]
		}
		rx, ry := x(v.Region[0].Lo), y(v.Region[1].Hi)
		rw := (v.Region[0].Hi - v.Region[0].Lo) * scaleX
		rh := (v.Region[1].Hi - v.Region[1].Lo) * scaleY
		fmt.Fprintf(&b,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" fill-opacity="0.45" stroke="#333" stroke-width="1.2"/>`+"\n",
			rx, ry, rw, rh, fill)
	}

	// Linear scales as light lines.
	for _, s := range f.Scales(0) {
		fmt.Fprintf(&b, `<line x1="%.1f" y1="0" x2="%.1f" y2="%d" stroke="#bbb" stroke-width="0.5"/>`+"\n",
			x(s), x(s), height)
	}
	for _, s := range f.Scales(1) {
		fmt.Fprintf(&b, `<line x1="0" y1="%.1f" x2="%d" y2="%.1f" stroke="#bbb" stroke-width="0.5"/>`+"\n",
			y(s), width, y(s))
	}

	if opts.Points {
		f.Scan(func(key []float64) bool {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="1.1" fill="#1a1a1a" fill-opacity="0.6"/>`+"\n",
				x(key[0]), y(key[1]))
			return true
		})
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}

// ASCII sketches the grid directory of a 2-D grid file: each cell prints a
// letter identifying its bucket (cycling a-z then A-Z), so merged regions
// appear as runs of the same letter. Rows are y-descending so the sketch
// matches the SVG orientation. cols bounds the number of cells drawn per
// axis (larger grids are sampled).
func ASCII(f *gridfile.File, cols int) (string, error) {
	if f.Dims() != 2 {
		return "", fmt.Errorf("render: ASCII needs a 2-D grid file, got %d-D", f.Dims())
	}
	if cols <= 0 {
		cols = 64
	}
	sizes := f.CellSizes()
	nx, ny := sizes[0], sizes[1]
	stepX, stepY := 1, 1
	if nx > cols {
		stepX = (nx + cols - 1) / cols
	}
	if ny > cols {
		stepY = (ny + cols - 1) / cols
	}

	letter := func(id int32) byte {
		const alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
		return alpha[int(id)%len(alpha)]
	}
	var b strings.Builder
	for cy := ny - 1; cy >= 0; cy -= stepY {
		for cx := 0; cx < nx; cx += stepX {
			// Probe the cell's centre point to find its bucket.
			px := cellCenter(f, 0, cx)
			py := cellCenter(f, 1, cy)
			q := geom.Rect{{Lo: px, Hi: px}, {Lo: py, Hi: py}}
			ids := f.BucketsInRange(q)
			if len(ids) == 0 {
				b.WriteByte('?')
				continue
			}
			b.WriteByte(letter(ids[0]))
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// ASCIIAllocation sketches a declustered 2-D grid file: each cell prints
// the disk (0-9, then a-z, then A-Z, cycling) of the bucket owning it, so
// stripes and clusters of a poor declustering are visible in a terminal —
// DM paints diagonals, minimax speckle. cols bounds the cells per axis.
func ASCIIAllocation(f *gridfile.File, alloc core.Allocation, cols int) (string, error) {
	if f.Dims() != 2 {
		return "", fmt.Errorf("render: ASCIIAllocation needs a 2-D grid file, got %d-D", f.Dims())
	}
	if err := alloc.Validate(f.NumBuckets()); err != nil {
		return "", err
	}
	if cols <= 0 {
		cols = 64
	}
	table := f.IndexByID()
	sizes := f.CellSizes()
	nx, ny := sizes[0], sizes[1]
	stepX, stepY := 1, 1
	if nx > cols {
		stepX = (nx + cols - 1) / cols
	}
	if ny > cols {
		stepY = (ny + cols - 1) / cols
	}
	const alpha = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	var b strings.Builder
	for cy := ny - 1; cy >= 0; cy -= stepY {
		for cx := 0; cx < nx; cx += stepX {
			px := cellCenter(f, 0, cx)
			py := cellCenter(f, 1, cy)
			ids := f.BucketsInRange(geom.Rect{{Lo: px, Hi: px}, {Lo: py, Hi: py}})
			if len(ids) == 0 {
				b.WriteByte('?')
				continue
			}
			disk := alloc.Assign[table[ids[0]]]
			b.WriteByte(alpha[disk%len(alpha)])
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// cellCenter returns the domain-space midpoint of cell index `cell` along
// the given dimension.
func cellCenter(f *gridfile.File, dim, cell int) float64 {
	s := f.Scales(dim)
	dom := f.Domain()
	cLo, cHi := dom[dim].Lo, dom[dim].Hi
	if cell > 0 {
		cLo = s[cell-1]
	}
	if cell < len(s) {
		cHi = s[cell]
	}
	return (cLo + cHi) / 2
}
