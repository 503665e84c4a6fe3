// Command s2rdf loads RDF data into the ExtVP store and answers SPARQL
// queries, mirroring the load/query workflow of the paper's prototype.
//
// Subcommands:
//
//	s2rdf load  -in data.nt -store ./storedir [-threshold 0.25]
//	s2rdf query -store ./storedir [-mode ExtVP] [-explain] [-mem-budget N] 'SELECT ...'
//	s2rdf serve -store ./storedir [-stores name=dir,...] [-addr :8080]
//	            [-mode ExtVP] [-max-concurrent 8] [-queue-depth 32]
//	            [-cheap-threshold 1000] [-slice 20ms]
//	            [-mem-budget N] [-stream-threshold 1024]
//	            [-result-cache-bytes N] [-timeout 30s] [-drain 30s]
//	s2rdf stats -store ./storedir
//
// query prints solutions as the engine delivers them (batch streaming);
// -mem-budget bounds a query's intermediate state, spilling joins to disk
// past it.
//
// serve handles SIGINT/SIGTERM by draining: the listener closes at once,
// in-flight queries get -drain to finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"maps"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"s2rdf"
	"s2rdf/internal/core"
	"s2rdf/internal/engine"
	"s2rdf/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("s2rdf: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "load":
		cmdLoad(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  s2rdf load  -in data.nt -store DIR [-threshold T] [-novp]
  s2rdf query -store DIR [-mode ExtVP|VP|TT|PT] [-explain]
              [-cheap-threshold N] [-mem-budget BYTES] 'SPARQL'
  s2rdf serve -store DIR [-stores NAME=DIR,...] [-addr :8080]
              [-mode ExtVP|VP|TT|PT] [-max-concurrent N] [-queue-depth N]
              [-cheap-threshold N] [-slice D] [-pt]
              [-mem-budget BYTES] [-stream-threshold N]
              [-result-cache-bytes BYTES]
              [-timeout D] [-max-timeout D] [-drain D]
  s2rdf stats -store DIR`)
	os.Exit(2)
}

func cmdLoad(args []string) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	in := fs.String("in", "", "input N-Triples file")
	dir := fs.String("store", "", "store directory")
	threshold := fs.Float64("threshold", 0, "SF threshold (0 = keep all useful tables)")
	noExt := fs.Bool("novp", false, "skip ExtVP preprocessing (plain VP store)")
	bitvec := fs.Bool("bitvec", false, "store ExtVP reductions as bit vectors (paper Sec. 8)")
	fs.Parse(args)
	if *in == "" || *dir == "" {
		fs.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	st, err := s2rdf.LoadReader(f, s2rdf.Options{
		Threshold:    *threshold,
		DisableExtVP: *noExt,
		BitVectors:   *bitvec,
	})
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(start)
	if err := st.Save(*dir); err != nil {
		log.Fatal(err)
	}
	sizes := st.Sizes()
	fmt.Printf("loaded %d triples in %v\n", sizes.Triples, buildTime.Round(time.Millisecond))
	fmt.Printf("VP tables: %d, ExtVP tables: %d (%d tuples), empty: %d, =VP: %d\n",
		sizes.VPTables, sizes.ExtTables, sizes.ExtTuples, sizes.ExtEmpty, sizes.ExtEqualVP)
	fmt.Printf("store written to %s\n", *dir)
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir := fs.String("store", "", "store directory")
	mode := fs.String("mode", "ExtVP", "execution mode: ExtVP, VP, TT or PT")
	explain := fs.Bool("explain", false, "print the selected tables per pattern")
	cheapThreshold := fs.Int("cheap-threshold", 0, "cost-gate boundary in estimated rows (0 = default)")
	memBudget := fs.Int64("mem-budget", 0, "per-query memory budget in bytes; joins past it spill to temp files (0 = unbounded)")
	fs.Parse(args)
	if *dir == "" || fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	st, err := s2rdf.Open(*dir, s2rdf.Options{BuildPropertyTable: strings.EqualFold(*mode, "PT")})
	if err != nil {
		log.Fatal(err)
	}
	m, ok := s2rdf.ParseMode(*mode)
	if !ok {
		log.Fatalf("unknown mode %q", *mode)
	}
	if *memBudget > 0 {
		st.SetMemBudget(*memBudget, "")
	}
	// Run through a one-off scheduler exactly like the server would, so
	// -explain reports the cost-gate verdict and scheduling record of the
	// query.
	cost, err := st.Engine(m).EstimateCost(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	class := sched.Classify(cost.Cost(), *cheapThreshold)
	sc := sched.New(sched.Options{})
	ticket, err := sc.Admit(context.Background(), class)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if class == sched.Expensive {
		ctx = engine.WithYielder(ctx, ticket)
	}
	printRow := func(row []s2rdf.Term) {
		parts := make([]string, len(row))
		for i, t := range row {
			parts[i] = string(t)
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
	summary := func(res *core.Result, n int) {
		fmt.Fprintf(os.Stderr, "%d solutions in %v (first row %v; scanned %d rows, pruned %d, shuffled %d; peak mem %d B, spilled %d B)\n",
			n, res.Duration.Round(time.Microsecond), res.TimeToFirstRow.Round(time.Microsecond),
			res.Metrics.RowsScanned, res.Metrics.RowsPruned, res.Metrics.RowsShuffled,
			res.PeakMemBytes, res.Metrics.BytesSpilled)
	}

	if !*explain {
		// Solutions print as the engine delivers them, batch by batch —
		// first rows appear while the result is still being produced.
		stream, err := st.Engine(m).QueryStream(ctx, fs.Arg(0))
		if err != nil {
			ticket.Release()
			log.Fatal(err)
		}
		fmt.Println(strings.Join(stream.Vars(), "\t"))
		n := 0
		for {
			batch, err := stream.Next()
			if err != nil {
				ticket.Release()
				log.Fatal(err)
			}
			if batch == nil {
				break
			}
			for _, row := range batch {
				printRow(row)
			}
			n += len(batch)
		}
		ticket.Release()
		summary(stream.Result(), n)
		return
	}

	// -explain reports final metrics, so it materializes the result before
	// printing (the report precedes the rows).
	res, err := st.QueryModeContext(ctx, m, fs.Arg(0))
	ticket.Release()
	if err != nil {
		log.Fatal(err)
	}
	res.Sched = &core.SchedInfo{
		Class:     class.String(),
		Cost:      cost,
		QueueWait: ticket.QueueWait(),
		Yields:    ticket.Yields(),
	}
	if *explain {
		fmt.Printf("# cost gate: %s (cost %d = max(scan %d, peak %d); %d patterns)\n",
			res.Sched.Class, cost.Cost(), cost.ScanRows, cost.PeakRows, cost.Patterns)
		fmt.Printf("# sched: queue wait %v, yields %d\n",
			res.Sched.QueueWait.Round(time.Microsecond), res.Sched.Yields)
		fmt.Println("# plan:")
		for _, p := range res.Plan {
			keys := ""
			if p.Keys > 0 {
				keys = fmt.Sprintf(", keys=%d", p.Keys)
			}
			fmt.Printf("#   %-40s -> %s (rows %d, est %d, SF %.2f; scanned %d, pruned %d%s)\n",
				p.Pattern, p.Table, p.Rows, p.Est, p.SF, p.Scanned, p.Pruned, keys)
		}
		if len(res.JoinOrder) > 0 {
			order := make([]string, len(res.JoinOrder))
			for i, idx := range res.JoinOrder {
				order[i] = strconv.Itoa(idx)
			}
			fmt.Printf("# join order: %s\n", strings.Join(order, ", "))
		}
		for _, j := range res.Joins {
			co := ""
			if j.CoPartitioned {
				co = ", co-partitioned"
			}
			fmt.Printf("#   join %-38s %s (left ~%d rows, right ~%d rows; shuffled %d, comparisons %d%s)\n",
				j.Right, j.Strategy, j.LeftRows, j.RightRows, j.RowsShuffled, j.Comparisons, co)
		}
		switch {
		case res.SelectionCacheHits+res.SelectionCacheMisses == 0:
		case res.SelectionCacheMisses == 0:
			fmt.Println("# selection cache: hit (Algorithm 1 skipped)")
		default:
			fmt.Println("# selection cache: miss")
		}
		if res.StatsOnly {
			fmt.Println("#   answered from statistics only (no execution)")
		}
		fmt.Printf("# streaming: first row after %v; sort state %d rows; peak accounted memory %d B, spilled %d B\n",
			res.TimeToFirstRow.Round(time.Microsecond), res.Metrics.RowsSorted,
			res.PeakMemBytes, res.Metrics.BytesSpilled)
	}
	fmt.Println(strings.Join(res.Vars, "\t"))
	for _, row := range res.Rows {
		printRow(row)
	}
	summary(res, res.Len())
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("store", "", "default store directory")
	extra := fs.String("stores", "", "additional stores, NAME=DIR[,NAME=DIR...], served at /sparql/NAME")
	addr := fs.String("addr", ":8080", "listen address")
	mode := fs.String("mode", "ExtVP", "default execution mode: ExtVP, VP, TT or PT")
	maxConcurrent := fs.Int("max-concurrent", 0, "max concurrent queries per store, split between the cheap and expensive lanes (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 0, "per-lane admission queue bound; a full queue answers 429 + Retry-After (0 = max(16, 4x max-concurrent))")
	cheapThreshold := fs.Int("cheap-threshold", 0, "cost-gate boundary in planner-estimated rows (0 = 1000)")
	slice := fs.Duration("slice", 0, "expensive-query time slice before yielding the worker slot (0 = 20ms)")
	pt := fs.Bool("pt", false, "also build the property table so mode=PT requests work")
	memBudget := fs.Int64("mem-budget", 0, "per-query memory budget in bytes; joins past it spill to temp files (0 = unbounded)")
	streamThreshold := fs.Int("stream-threshold", 0, "rows above which SELECT responses stream incrementally (0 = 1024)")
	resultCacheBytes := fs.Int64("result-cache-bytes", 0, "per-store full-result cache budget in bytes; hits skip admission and execution, misses execute and fill (0 = disabled)")
	timeout := fs.Duration("timeout", 0, "default per-query deadline (0 = none); requests may override with ?timeout=")
	maxTimeout := fs.Duration("max-timeout", 0, "cap on per-query deadlines, including client-requested ones (0 = no cap)")
	drainT := fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight queries on SIGINT/SIGTERM")
	fs.Parse(args)
	if *dir == "" {
		fs.Usage()
		os.Exit(2)
	}
	m, ok := s2rdf.ParseMode(*mode)
	if !ok {
		log.Fatalf("unknown mode %q", *mode)
	}
	opts := s2rdf.Options{BuildPropertyTable: *pt || m == s2rdf.ModePT}

	stores := map[string]*s2rdf.Store{}
	open := func(name, d string) {
		st, err := s2rdf.Open(d, opts)
		if err != nil {
			// A store that fails integrity validation (or cannot be read)
			// keeps its route but refuses queries with 503: one corrupt
			// directory must not take the healthy stores down with it.
			log.Printf("store %s: %v — serving as unavailable (503)", name, err)
			stores[name] = s2rdf.NewUnavailableStore(err.Error())
			return
		}
		stores[name] = st
		fmt.Printf("store %-12s %8d triples (%s)\n", name, st.NumTriples(), d)
	}
	open(s2rdf.DefaultStoreName, *dir)
	if *extra != "" {
		for _, spec := range strings.Split(*extra, ",") {
			name, d, ok := strings.Cut(strings.TrimSpace(spec), "=")
			if !ok || name == "" || d == "" {
				log.Fatalf("bad -stores entry %q (want NAME=DIR)", spec)
			}
			if _, dup := stores[name]; dup {
				log.Fatalf("duplicate store name %q", name)
			}
			open(name, d)
		}
	}

	h, err := s2rdf.NewMux(stores, s2rdf.DefaultStoreName, s2rdf.ServerOptions{
		Mode:             m,
		MaxConcurrent:    *maxConcurrent,
		QueueDepth:       *queueDepth,
		CheapThreshold:   *cheapThreshold,
		Slice:            *slice,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		MemBudget:        *memBudget,
		StreamThreshold:  *streamThreshold,
		ResultCacheBytes: *resultCacheBytes,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("listening on %s (mode %s, %d store(s))\n", *addr, m, len(stores))
	hint := *addr
	if strings.HasPrefix(hint, ":") {
		hint = "localhost" + hint
	}
	fmt.Printf("try: curl 'http://%s/sparql?query=SELECT...'\n", hint)

	// SIGINT/SIGTERM stop accepting connections and drain in-flight
	// queries for up to -drain before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = s2rdf.ListenAndServe(ctx, *addr, h, *drainT)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	fmt.Println("drained, bye")
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dir := fs.String("store", "", "store directory")
	top := fs.Int("top", 15, "number of largest tables to list")
	fs.Parse(args)
	if *dir == "" {
		fs.Usage()
		os.Exit(2)
	}
	st, err := s2rdf.Open(*dir, s2rdf.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sizes := st.Sizes()
	fmt.Printf("triples:        %d\n", sizes.Triples)
	fmt.Printf("VP tables:      %d\n", sizes.VPTables)
	fmt.Printf("ExtVP tables:   %d (%d tuples)\n", sizes.ExtTables, sizes.ExtTuples)
	fmt.Printf("empty:          %d\n", sizes.ExtEmpty)
	fmt.Printf("equal to VP:    %d\n", sizes.ExtEqualVP)
	fmt.Printf("cut by SF TH:   %d\n", sizes.ExtCut)
	fmt.Printf("total tuples:   %d (%.1fx the input)\n", sizes.TotalTuples,
		float64(sizes.TotalTuples)/float64(sizes.Triples))

	vps := slices.Collect(maps.Values(st.Dataset().VP))
	sort.Slice(vps, func(i, j int) bool { return vps[i].NumRows() > vps[j].NumRows() })
	fmt.Printf("\nlargest VP tables:\n")
	for _, tbl := range vps[:max(0, min(*top, len(vps)))] {
		fmt.Printf("  %-40s %8d rows (%.2f of |G|)\n", tbl.Name, tbl.NumRows(),
			float64(tbl.NumRows())/float64(sizes.Triples))
	}
}
