// Command ristretto-sim estimates one network's inference on a chosen
// accelerator: cycles, per-layer utilization and the energy breakdown.
//
// Usage:
//
//	ristretto-sim -net ResNet-18 -precision 4b -accel ristretto
//	              [-tiles 32] [-mults 32] [-gran 2] [-balance wa|w|none]
//	              [-seed 1] [-scale 1] [-layers] [-telemetry] [-manifest path]
//	              [-cpuprofile f] [-memprofile f] [-trace f] [-pprof addr]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ristretto/internal/accel"
	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/experiments"
	"ristretto/internal/model"
	"ristretto/internal/ristretto"
	"ristretto/internal/telemetry"
)

func main() {
	var layered []string // the accelerators whose estimate has per-layer detail
	for _, a := range accel.All() {
		if a.PerLayer {
			layered = append(layered, a.Name)
		}
	}
	net := flag.String("net", "ResNet-18", "network: AlexNet, VGG-16, GoogLeNet, Inception-V2, ResNet-18, ResNet-50")
	precision := flag.String("precision", "8b", "8b, 4b, 2b or mix2/4")
	accelName := flag.String("accel", "ristretto", strings.Join(accel.Names(), ", "))
	tiles := flag.Int("tiles", 32, "Ristretto compute tiles")
	mults := flag.Int("mults", 32, "atom multipliers per tile")
	gran := flag.Int("gran", 2, "atom granularity in bits (1-3)")
	bal := flag.String("balance", "wa", "load balancing: "+strings.Join(balance.PolicyNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	scale := flag.Int("scale", 1, "spatial scale-down factor")
	perLayer := flag.Bool("layers", false, "print per-layer detail ("+strings.Join(layered, ", ")+" only)")
	telem := flag.Bool("telemetry", false, "enable telemetry and print the counter snapshot")
	manifestPath := flag.String("manifest", "", "also write a run manifest to this path (implies -telemetry)")
	version := flag.Bool("version", false, "print version and VCS info, then exit")
	var prof telemetry.Profiler
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *version {
		fmt.Println(telemetry.VersionString("ristretto-sim"))
		return
	}

	// Validate every enum flag up front: an unknown value must name the
	// allowed set and exit non-zero instead of silently falling through (or
	// panicking deep inside a sweep).
	checkEnum("accel", *accelName, accel.Names())
	checkEnum("precision", *precision, experiments.PrecisionNames)
	checkEnum("balance", *bal, balance.PolicyNames)
	a, _ := accel.ByName(*accelName)
	if *perLayer && !a.PerLayer {
		fatal(fmt.Errorf("-layers needs per-layer detail, which only %s have; -accel %s has none",
			strings.Join(layered, ", "), *accelName))
	}
	if *gran < 1 || *gran > 3 {
		fatal(fmt.Errorf("invalid -gran %d (allowed: 1, 2, 3)", *gran))
	}
	if *tiles < 1 {
		fatal(fmt.Errorf("invalid -tiles %d: must be >= 1", *tiles))
	}
	if *mults < 1 {
		fatal(fmt.Errorf("invalid -mults %d: must be >= 1", *mults))
	}
	if *scale < 1 {
		fatal(fmt.Errorf("invalid -scale %d: must be >= 1", *scale))
	}
	if _, err := model.ByName(*net); err != nil {
		fatal(err)
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "ristretto-sim:", err)
		}
	}()
	if *manifestPath != "" {
		*telem = true
	}
	telemetry.Default.SetEnabled(*telem)
	b := experiments.NewQuickBench(*seed, *scale)
	b.Nets = []string{*net}
	n := b.Networks()[0]
	stats := b.Stats(n, *precision, atom.Granularity(*gran))

	policy, _ := balance.ParsePolicy(*bal) // validated above
	rc := ristretto.Config{
		Tiles:  *tiles,
		Tile:   ristretto.TileConfig{Mults: *mults, Gran: atom.Granularity(*gran)},
		Policy: policy,
	}
	perf := a.Estimate(stats, rc)
	if *perLayer {
		fmt.Printf("%-16s %12s %12s %6s\n", "layer", "cycles", "ideal", "util")
		for i, lp := range perf.Layers {
			fmt.Printf("%-16s %12d %12d %5.1f%%\n", stats[i].Layer.Name, lp.Cycles, lp.IdealCycles, 100*lp.Utilization)
		}
	}

	split := a.Energy(rc).Split(perf.Counters)
	fmt.Printf("network      : %s (%s, %d conv layers, %.2f GMACs)\n", n.Name, *precision, len(n.Layers), float64(n.MACs())/1e9)
	fmt.Printf("accelerator  : %s\n", *accelName)
	fmt.Printf("cycles       : %d (%.3f ms @ 500 MHz)\n", perf.Cycles, float64(perf.Cycles)/500e3)
	fmt.Printf("energy       : %.3f mJ (compute %.3f, on-chip %.3f, DRAM %.3f)\n",
		split.Total()/1e9, split.ComputePJ/1e9, split.OnChipPJ/1e9, split.OffChipPJ/1e9)
	fmt.Printf("DRAM traffic : %.2f MB\n", float64(perf.Counters.DRAMBytes)/(1<<20))

	if *telem {
		snap := telemetry.Default.Snapshot()
		fmt.Println("\n== Telemetry ==")
		fmt.Print(snap.String())
		if *manifestPath != "" {
			m := telemetry.NewManifest("ristretto-sim")
			m.Seed = *seed
			m.Scale = *scale
			m.Workers = 1
			m.Nets = []string{*net}
			m.AttachSnapshot(snap)
			if err := m.Write(*manifestPath); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "ristretto-sim: run manifest written to %s\n", *manifestPath)
		}
	}
}

func checkEnum(name, val string, allowed []string) {
	for _, a := range allowed {
		if val == a {
			return
		}
	}
	fatal(fmt.Errorf("invalid -%s %q (allowed: %s)", name, val, strings.Join(allowed, ", ")))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ristretto-sim:", err)
	os.Exit(1)
}
