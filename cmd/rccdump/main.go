// Command rccdump parses router configuration files, runs rcc-style
// static checks, and dumps the extracted topology — the front half of
// the machinery that mirrors an operational network into a VINI
// experiment.
//
// Usage:
//
//	rccdump file1.conf file2.conf ...
//	rccdump -abilene          # use the embedded Abilene configurations
//	rccdump -abilene -emit    # print the embedded configurations
package main

import (
	"flag"
	"fmt"
	"os"

	"vini/internal/rcc"
)

var (
	abilene = flag.Bool("abilene", false, "use the embedded Abilene router configurations")
	emit    = flag.Bool("emit", false, "print the configurations instead of the topology")
)

func main() {
	flag.Parse()
	var configs []*rcc.RouterConfig
	if *abilene {
		var err error
		if configs, err = rcc.ParseAbilene(); err != nil {
			fatal(err)
		}
		if *emit {
			files := rcc.AbileneConfigs()
			for _, c := range configs {
				fmt.Printf("### %s.conf\n%s\n", c.Hostname, files[c.Hostname])
			}
			return
		}
	} else {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: rccdump [-abilene [-emit]] [config files...]")
			os.Exit(2)
		}
		for _, f := range flag.Args() {
			text, err := os.ReadFile(f)
			if err != nil {
				fatal(err)
			}
			c, err := rcc.Parse(string(text))
			if err != nil {
				fatal(fmt.Errorf("%s: %w", f, err))
			}
			configs = append(configs, c)
		}
	}
	if probs := rcc.Check(configs); len(probs) > 0 {
		fmt.Println("static analysis found configuration faults:")
		for _, p := range probs {
			fmt.Println("  ", p)
		}
		os.Exit(1)
	}
	fmt.Println("static analysis: clean")
	g, err := rcc.BuildTopology(configs)
	if err != nil {
		fatal(err)
	}
	hello, dead, err := rcc.Timers(configs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("topology: %d routers, %d links (OSPF hello %s, dead %s)\n",
		len(g.Nodes()), len(g.Links()), hello, dead)
	for _, l := range g.Links() {
		fmt.Printf("  %-8s -- %-8s cost %5d/%-5d delay %-8s bw %.0f bit/s\n",
			l.A, l.B, l.CostAB, l.CostBA, l.Delay, l.Bandwidth)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
