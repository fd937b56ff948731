package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hostBlock records the environment a report was taken in, so two
// reports are only compared when they describe the same kind of host.
type hostBlock struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"load_avg_1m"`
}

func hostInfo() hostBlock {
	h := hostBlock{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown", LoadAvg1: -1}
	// Best effort: the driver's checkout is not a git repository.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.LoadAvg1 = v
			}
		}
	}
	return h
}
