package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// stampEnv records what a result was measured on: toolchain, platform,
// parallelism, CPU, source revision and the workload seed.
func stampEnv(workload string, seed int64, trace int) map[string]any {
	rev, dirty := gitRevision()
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"held_out_seed": heldOutSeed,
		"trace":         trace,
		"go":            runtime.Version(),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"git_rev":       rev,
		"git_dirty":     dirty,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision reports the checkout's commit and whether the work tree
// differs from it. It looks only at a .git directory in the working
// directory (never a parent's), and reports "unknown" outside a git
// work tree, as in an exported source tree.
func gitRevision() (rev string, dirty bool) {
	if st, err := os.Stat(".git"); err != nil || !st.IsDir() {
		return "unknown", false
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"--git-dir=.git", "--work-tree=."}, args...)...)
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil || rev == "" {
		return "unknown", false
	}
	status, err := git("status", "--porcelain", "--untracked-files=no")
	return rev, err != nil || status != ""
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
