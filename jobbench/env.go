package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
)

// envStamp is printed with every result.
type envStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Slots      int    `json:"slots"`
}

func stamp(w *workload, seed int64, seconds, traced int) envStamp {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return envStamp{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc,
		GoVersion: runtime.Version(), Commit: commit(), Slots: w.slots,
	}
}

// commit is the VCS revision the binary was built from, when the build
// ran inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM), so the peak covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark in MB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) != 2 || string(f[1]) != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
