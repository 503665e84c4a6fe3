module s2rdf/benchmark

go 1.24

require s2rdf v0.0.0

replace s2rdf => ../
