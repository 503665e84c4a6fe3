// Command watdivgen generates a WatDiv-like RDF dataset in N-Triples
// format, reproducing the entity classes and predicate-size profile of the
// Waterloo SPARQL Diversity Test Suite used in the paper's evaluation.
//
// Usage:
//
//	watdivgen -scale 1 -seed 42 -o watdiv-sf1.nt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"s2rdf/internal/rdf"
	"s2rdf/internal/watdiv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("watdivgen: ")
	scale := flag.Float64("scale", 1, "scale factor (1 ≈ 10^5 triples)")
	seed := flag.Int64("seed", 42, "generator seed")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		w = f
	}
	// Each triple is written as it is made, so memory stays at the entity
	// pools whatever the scale. After a failed write the rest are dropped.
	nt := rdf.NewWriter(w)
	var n int
	var werr error
	watdiv.GenerateTo(watdiv.Config{Scale: *scale, Seed: *seed}, func(t rdf.Triple) {
		if werr == nil {
			werr = nt.Write(t)
			n++
		}
	})
	if werr == nil {
		werr = nt.Flush()
	}
	if werr == nil && w != os.Stdout {
		werr = w.Close()
	}
	if werr != nil {
		log.Fatal(werr)
	}
	fmt.Fprintf(os.Stderr, "watdivgen: wrote %d triples (scale %g, seed %d)\n",
		n, *scale, *seed)
}
