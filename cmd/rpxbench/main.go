// Command rpxbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	rpxbench -exp all            # every experiment (minutes at -scale full)
//	rpxbench -exp fig8 -scale quick
//	rpxbench -list
//
// Experiments: fig3, table4, fig8, fig9a, fig9b, fig9c, table5, energy,
// appendix, clsweep, futurework, policyloop.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

// csvOut, when set, is the directory plottable experiments write CSVs into.
var csvOut string

// jsonOut, when set, is the directory the policyloop experiment writes its
// committed BENCH_policyloop.json into (-json . regenerates the one at the
// repo root).
var jsonOut string

// writeBenchJSON persists one experiment's BENCH_<name>.json via the given
// emitter.
func writeBenchJSON(name string, emit func(w *os.File) error) error {
	if jsonOut == "" {
		return nil
	}
	if err := os.MkdirAll(jsonOut, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(jsonOut, "BENCH_"+name+".json"))
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV persists one experiment's CSV via the given emitter.
func writeCSV(name string, emit func(w *os.File) error) error {
	if csvOut == "" {
		return nil
	}
	if err := os.MkdirAll(csvOut, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(csvOut, name+".csv"))
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type experiment struct {
	name string
	desc string
	run  func(experiments.Scale) (string, error)
}

var registry = []experiment{
	{"fig3", "ORB-SLAM case study: pixels captured & ATE (Fig. 3)", runFig3},
	{"table4", "Observed region statistics per task (Table 4)", runTable4},
	{"fig8", "Pixel memory throughput & footprint per baseline (Fig. 8)", runFig8},
	{"fig9a", "V-SLAM accuracy across baselines (Fig. 9a)", runFig9a},
	{"fig9b", "Human pose estimation mAP across baselines (Fig. 9b)", runFig9b},
	{"fig9c", "Face detection mAP across baselines (Fig. 9c)", runFig9c},
	{"table5", "Encoder resource scaling, parallel vs hybrid (Table 5)", runTable5},
	{"energy", "First-order energy model savings (§6.2, Table 6)", runEnergy},
	{"appendix", "Per-frame pixel progression over a cycle (Figs. 10-15)", runAppendix},
	{"clsweep", "Cycle length vs traffic/accuracy tradeoff (§6.1-6.2)", runCLSweep},
	{"futurework", "§7 directions: DRAM-less, in-sensor encoder, adaptive cycle", runFutureWork},
	{"policyloop", "closed-loop scenario policies: accuracy vs traffic over a CL sweep", runPolicyLoop},
}

func main() {
	expFlag := flag.String("exp", "all", "experiment to run (or 'all')")
	scaleFlag := flag.String("scale", "quick", "quick (seconds) or full (minutes)")
	csvDir := flag.String("csv", "", "also write CSV files for plottable experiments into this directory")
	jsonDir := flag.String("json", "", "also write the policyloop experiment's BENCH_policyloop.json into this directory")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()
	csvOut = *csvDir
	jsonOut = *jsonDir

	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}
	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "rpxbench: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	names := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		names = names[:0]
		for _, e := range registry {
			names = append(names, e.name)
		}
	}
	for _, name := range names {
		e, ok := find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "rpxbench: unknown experiment %q (use -list)\n", name)
			os.Exit(2)
		}
		fmt.Printf("== %s — %s ==\n", e.name, e.desc)
		start := time.Now()
		out, err := e.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rpxbench: %s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("(%s in %.1fs)\n\n", e.name, time.Since(start).Seconds())
	}
}

func find(name string) (experiment, bool) {
	for _, e := range registry {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

func runFig3(s experiments.Scale) (string, error) {
	r, err := experiments.Fig3(s)
	if err != nil {
		return "", err
	}
	return r.Report(), nil
}

func runTable4(s experiments.Scale) (string, error) {
	rows, err := experiments.Table4(s)
	if err != nil {
		return "", err
	}
	return experiments.Table4Report(rows), nil
}

func runFig8(s experiments.Scale) (string, error) {
	rows, err := experiments.Fig8(s)
	if err != nil {
		return "", err
	}
	if err := writeCSV("fig8", func(f *os.File) error { return experiments.Fig8CSV(f, rows) }); err != nil {
		return "", err
	}
	return experiments.Fig8Report(rows), nil
}

func runFig9a(s experiments.Scale) (string, error) {
	rows, err := experiments.Fig9SLAM(s)
	if err != nil {
		return "", err
	}
	if err := writeCSV("fig9a", func(f *os.File) error { return experiments.Fig9SLAMCSV(f, rows) }); err != nil {
		return "", err
	}
	return experiments.Fig9SLAMReport(rows), nil
}

func runFig9b(s experiments.Scale) (string, error) {
	rows, err := experiments.Fig9Pose(s)
	if err != nil {
		return "", err
	}
	if err := writeCSV("fig9b", func(f *os.File) error {
		return experiments.Fig9DetectionCSV(f, "pose", rows)
	}); err != nil {
		return "", err
	}
	return experiments.Fig9DetectionReport("Human pose estimation", rows), nil
}

func runFig9c(s experiments.Scale) (string, error) {
	rows, err := experiments.Fig9Face(s)
	if err != nil {
		return "", err
	}
	if err := writeCSV("fig9c", func(f *os.File) error {
		return experiments.Fig9DetectionCSV(f, "face", rows)
	}); err != nil {
		return "", err
	}
	return experiments.Fig9DetectionReport("Face detection", rows), nil
}

func runTable5(experiments.Scale) (string, error) {
	return experiments.Table5Report(experiments.Table5()), nil
}

func runEnergy(s experiments.Scale) (string, error) {
	r, err := experiments.Energy(s)
	if err != nil {
		return "", err
	}
	return r.Report(), nil
}

func runAppendix(s experiments.Scale) (string, error) {
	series, err := experiments.Appendix(s)
	if err != nil {
		return "", err
	}
	if err := writeCSV("appendix", func(f *os.File) error { return experiments.AppendixCSV(f, series) }); err != nil {
		return "", err
	}
	return experiments.AppendixReport(series), nil
}

func runFutureWork(s experiments.Scale) (string, error) {
	r, err := experiments.FutureWork(s)
	if err != nil {
		return "", err
	}
	return r.Report(), nil
}

func runCLSweep(s experiments.Scale) (string, error) {
	cls := []int{5, 10, 15}
	if s == experiments.Full {
		cls = []int{2, 5, 10, 15, 20, 30}
	}
	rows, err := experiments.CLSweep(s, cls)
	if err != nil {
		return "", err
	}
	if err := writeCSV("clsweep", func(f *os.File) error { return experiments.CLSweepCSV(f, rows) }); err != nil {
		return "", err
	}
	return experiments.CLSweepReport(rows), nil
}

func runPolicyLoop(s experiments.Scale) (string, error) {
	rows, err := experiments.PolicyLoop(s)
	if err != nil {
		return "", err
	}
	if err := writeCSV("policyloop", func(f *os.File) error { return experiments.PolicyLoopCSV(f, rows) }); err != nil {
		return "", err
	}
	if err := writeBenchJSON("policyloop", func(f *os.File) error { return experiments.PolicyLoopJSON(f, rows) }); err != nil {
		return "", err
	}
	return experiments.PolicyLoopReport(rows), nil
}
