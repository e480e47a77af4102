package main

import (
	"flag"
	"fmt"
	"os"

	"pgridfile/internal/core"
	"pgridfile/internal/render"
)

func runViz(args []string) error {
	fs := flag.NewFlagSet("viz", flag.ExitOnError)
	path := fs.String("file", "", "grid file (required, must be 2-D)")
	format := fs.String("format", "svg", "output format: svg or ascii")
	out := fs.String("out", "", "output path (default stdout)")
	width := fs.Int("width", 640, "SVG width in pixels / ASCII cells per row")
	points := fs.Bool("points", true, "draw data points (svg only)")
	alg := fs.String("alg", "", "colour buckets by this declustering (e.g. minimax, HCAM/D)")
	disks := fs.Int("disks", 16, "disk count for -alg")
	seed := fs.Int64("seed", 1, "seed for -alg")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("viz: -file is required")
	}
	f, err := loadFile(*path)
	if err != nil {
		return err
	}

	var doc string
	switch *format {
	case "svg":
		opts := render.SVGOptions{Width: *width, Points: *points}
		if *alg != "" {
			allocator, err := core.ParseAllocator(*alg, *seed, 0)
			if err != nil {
				return err
			}
			alloc, err := allocator.Decluster(core.FromGridFile(f), *disks)
			if err != nil {
				return err
			}
			opts.Allocation = &alloc
		}
		doc, err = render.SVG(f, opts)
	case "ascii":
		doc, err = render.ASCII(f, *width)
	case "ascii-alloc":
		if *alg == "" {
			return fmt.Errorf("viz: ascii-alloc needs -alg")
		}
		allocator, err2 := core.ParseAllocator(*alg, *seed, 0)
		if err2 != nil {
			return err2
		}
		alloc, err2 := allocator.Decluster(core.FromGridFile(f), *disks)
		if err2 != nil {
			return err2
		}
		doc, err = render.ASCIIAllocation(f, alloc, *width)
	default:
		return fmt.Errorf("viz: unknown format %q (svg, ascii, ascii-alloc)", *format)
	}
	if err != nil {
		return err
	}

	if *out == "" {
		fmt.Print(doc)
		return nil
	}
	if err := os.WriteFile(*out, []byte(doc), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(doc))
	return nil
}
