// Command graphgen generates the synthetic benchmark graphs (or converts
// between formats) for use with smqbench and the examples.
//
// Usage:
//
//	graphgen -type road -rows 256 -cols 128 -o usa.bin
//	graphgen -type rmat -rmatscale 16 -ef 16 -o twitter.bin
//	graphgen -in usa.bin -o usa.gr -outformat dimacs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

// run is graphgen on its arguments.
func run(args []string) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	var (
		typ       = fs.String("type", "road", "generator: road, rmat, uniform")
		rows      = fs.Int("rows", 128, "road grid rows")
		cols      = fs.Int("cols", 128, "road grid cols")
		rmatScale = fs.Int("rmatscale", 14, "RMAT: log2 of vertex count")
		ef        = fs.Int("ef", 16, "RMAT: edges per vertex")
		n         = fs.Int("n", 10000, "uniform: vertex count")
		m         = fs.Int("m", 100000, "uniform: edge count")
		maxW      = fs.Uint("maxw", 255, "uniform: maximum edge weight")
		seed      = fs.Uint64("seed", 42, "generator seed")
		in        = fs.String("in", "", "read an existing graph (bin or dimacs by extension) instead of generating")
		out       = fs.String("o", "", "output path (required)")
		outFormat = fs.String("outformat", "bin", "output format: bin or dimacs")
		stat      = fs.Bool("stat", true, "print graph statistics to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *out == "" {
		return fmt.Errorf("-o is required")
	}

	var g *graph.CSR
	if *in != "" {
		var err error
		if g, err = readGraph(*in); err != nil {
			return err
		}
	} else {
		switch *typ {
		case "road":
			g = graph.GenerateRoadGrid(*rows, *cols, *seed)
		case "rmat":
			g = graph.GenerateRMAT(*rmatScale, *ef, graph.DefaultRMATParams(), *seed)
		case "uniform":
			g = graph.GenerateUniformRandom(*n, *m, uint32(*maxW), *seed)
		default:
			return fmt.Errorf("unknown generator %q", *typ)
		}
	}

	if err := writeGraph(*out, *outFormat, g); err != nil {
		return err
	}

	if *stat {
		s := g.Stat(*out)
		fmt.Fprintf(os.Stderr, "%s: |V|=%d |E|=%d maxdeg=%d avgdeg=%.2f coords=%v\n",
			s.Name, s.N, s.M, s.MaxDeg, s.AvgDeg, s.HasCoords)
	}
	return nil
}

// writeGraph writes g to path in format. A failed write or close removes
// the file, so a later -in never reads back a truncated graph; a close
// can fail on a write the kernel deferred.
func writeGraph(path, format string, g *graph.CSR) error {
	var write func(io.Writer, *graph.CSR) error
	switch format {
	case "bin":
		write = graph.WriteBinary
	case "dimacs":
		write = graph.WriteDIMACS
	default:
		return fmt.Errorf("unknown output format %q", format)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err = write(f, g); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

func readGraph(path string) (*graph.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if len(path) > 3 && path[len(path)-3:] == ".gr" {
		return graph.ReadDIMACS(f)
	}
	return graph.ReadBinary(f)
}
