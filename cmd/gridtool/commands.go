package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/sim"
)

// readPoints parses a CSV of float coordinates, requiring a consistent
// dimensionality.
func readPoints(path string) ([]geom.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReader(f))
	r.FieldsPerRecord = -1
	var pts []geom.Point
	dims := -1
	line := 0
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		line++
		if dims < 0 {
			dims = len(rec)
		} else if len(rec) != dims {
			return nil, fmt.Errorf("%s:%d: %d fields, want %d", path, line, len(rec), dims)
		}
		p := make(geom.Point, dims)
		for i, field := range rec {
			v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: field %d: %w", path, line, i+1, err)
			}
			p[i] = v
		}
		pts = append(pts, p)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return pts, nil
}

// parseDomain parses "lo:hi,lo:hi,...".
func parseDomain(s string) (geom.Rect, error) {
	parts := strings.Split(s, ",")
	r := make(geom.Rect, len(parts))
	for i, p := range parts {
		var lo, hi float64
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%f:%f", &lo, &hi); err != nil {
			return nil, fmt.Errorf("bad interval %q (want lo:hi)", p)
		}
		r[i] = geom.Interval{Lo: lo, Hi: hi}
	}
	return r, nil
}

// inferDomain bounds the points with 1% padding per axis.
func inferDomain(pts []geom.Point) geom.Rect {
	dims := len(pts[0])
	r := make(geom.Rect, dims)
	for d := 0; d < dims; d++ {
		lo, hi := pts[0][d], pts[0][d]
		for _, p := range pts[1:] {
			if p[d] < lo {
				lo = p[d]
			}
			if p[d] > hi {
				hi = p[d]
			}
		}
		pad := (hi - lo) * 0.01
		if pad == 0 {
			pad = 1
		}
		r[d] = geom.Interval{Lo: lo - pad, Hi: hi + pad}
	}
	return r
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "", "input CSV of points (required)")
	out := fs.String("out", "", "output grid file path (required)")
	capacity := fs.Int("capacity", 56, "bucket capacity in records")
	domain := fs.String("domain", "", "data domain as lo:hi,lo:hi,... (default: inferred)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("build: -in and -out are required")
	}
	pts, err := readPoints(*in)
	if err != nil {
		return err
	}
	dom := inferDomain(pts)
	if *domain != "" {
		dom, err = parseDomain(*domain)
		if err != nil {
			return err
		}
		if len(dom) != len(pts[0]) {
			return fmt.Errorf("domain has %d dims, data has %d", len(dom), len(pts[0]))
		}
	}
	f, err := gridfile.New(gridfile.Config{Dims: len(pts[0]), Domain: dom, BucketCapacity: *capacity})
	if err != nil {
		return err
	}
	for _, p := range pts {
		if err := f.Insert(gridfile.Record{Key: p}); err != nil {
			return err
		}
	}
	w, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer w.Close()
	if _, err := f.WriteTo(w); err != nil {
		return err
	}
	st := f.Stats()
	fmt.Printf("built %s: %d records, %d cells, %d buckets (%d merged)\n",
		*out, st.Records, st.Cells, st.Buckets, st.MergedBuckets)
	return nil
}

// loadFile reads the grid file at path in one piece and decodes it. Bytes
// behind the grid file are ignored, as gridfile.Read ignores them, so a
// layout's checkpoint file, layout.grd, reads as the grid it holds.
func loadFile(path string) (*gridfile.File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, _, err := gridfile.Decode(data)
	return f, err
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	path := fs.String("file", "", "grid file (required)")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("stats: -file is required")
	}
	f, err := loadFile(*path)
	if err != nil {
		return err
	}
	st := f.Stats()
	fmt.Printf("records:          %d\n", st.Records)
	fmt.Printf("dimensions:       %d\n", f.Dims())
	fmt.Printf("domain:           %v\n", f.Domain())
	fmt.Printf("grid:             %v (%d subspaces)\n", st.CellsPerDim, st.Cells)
	fmt.Printf("buckets:          %d (%d merged, %d overfull)\n",
		st.Buckets, st.MergedBuckets, st.OverfullBuckets)
	fmt.Printf("bucket capacity:  %d records\n", f.BucketCapacity())
	fmt.Printf("avg occupancy:    %.2f\n", st.AvgOccupancy)
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	path := fs.String("file", "", "grid file (required)")
	rng := fs.String("range", "", "query box as lo:hi,lo:hi,... (required)")
	countOnly := fs.Bool("count", false, "print only the match count")
	fs.Parse(args)
	if *path == "" || *rng == "" {
		return fmt.Errorf("query: -file and -range are required")
	}
	f, err := loadFile(*path)
	if err != nil {
		return err
	}
	q, err := parseDomain(*rng)
	if err != nil {
		return err
	}
	if len(q) != f.Dims() {
		return fmt.Errorf("query has %d dims, file has %d", len(q), f.Dims())
	}
	buckets := f.BucketsInRange(q)
	if *countOnly {
		fmt.Printf("%d records in %d buckets\n", f.RangeCount(q), len(buckets))
		return nil
	}
	recs := f.RangeSearch(q)
	for _, r := range recs {
		parts := make([]string, len(r.Key))
		for i, v := range r.Key {
			parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		fmt.Println(strings.Join(parts, ","))
	}
	fmt.Fprintf(os.Stderr, "%d records in %d buckets\n", len(recs), len(buckets))
	return nil
}

func runDecluster(args []string) error {
	fs := flag.NewFlagSet("decluster", flag.ExitOnError)
	path := fs.String("file", "", "grid file (required)")
	alg := fs.String("alg", "minimax", "algorithm: minimax, ssp, mst, or scheme/resolver like DM/D, HCAM/D")
	disks := fs.Int("disks", 16, "number of disks")
	seed := fs.Int64("seed", 1, "seed for randomized phases")
	out := fs.String("out", "", "write bucketID,disk CSV here (default: summary only)")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("decluster: -file is required")
	}
	f, err := loadFile(*path)
	if err != nil {
		return err
	}
	g := core.FromGridFile(f)

	allocator, err := core.ParseAllocator(*alg, *seed, 0)
	if err != nil {
		return err
	}

	alloc, err := allocator.Decluster(g, *disks)
	if err != nil {
		return err
	}
	fmt.Printf("%s over %d disks: %d buckets, balance degree %.3f, closest pairs co-located %d\n",
		allocator.Name(), *disks, len(g.Buckets),
		sim.DataBalanceDegree(alloc),
		sim.CountSameDisk(sim.NearestCompanions(g), alloc))

	if *out != "" {
		w, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer w.Close()
		bw := bufio.NewWriter(w)
		defer bw.Flush()
		fmt.Fprintln(bw, "bucket_id,disk")
		for _, v := range g.Buckets {
			fmt.Fprintf(bw, "%d,%d\n", v.ID, alloc.Assign[v.Index])
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}
