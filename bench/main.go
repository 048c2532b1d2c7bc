// Command bench is the repository's one benchmark: it drives the real
// save→restore path (ckpt.Manager → store on the OS filesystem with real
// fsync, and the lossyckptd binary over loopback HTTP) on five named
// workloads, checks every restored field against what was saved, and prints
// each metric by name with its unit. See README.md for the names.
//
// Run it through run.sh, which also builds the daemon:
//
//	bash bench/run.sh --workload climate5_lossy --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1 --out bench/out/a.json      (all five workloads)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all: each in a child process of its own")
		seed    = flag.Int64("seed", 1, "seed the inputs are made from")
		seconds = flag.Float64("seconds", defaultSeconds, "how long the closed loop is measured")
		trace   = flag.Int("trace", 0, "1 measures the per-layer metrics and writes the span file, 0 the end-to-end metrics")
		dir     = flag.String("dir", "out", "directory for stores, span files and daemon logs")
		out     = flag.String("out", "", "also write the results with the environment block to this file")
		daemon  = flag.String("daemon", "", "path of the lossyckptd binary (default: built into -dir)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0, *dir, *out, *daemon); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// file is the shape of a result file: where and how it was measured, then
// one result per workload.
type file struct {
	Env     environment `json:"environment"`
	Results []*result   `json:"results"`
}

type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	DirFS      string  `json:"dir_filesystem"`
	TmpfsDir   bool    `json:"dir_is_tmpfs"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	// TraceCycles are the fixed cycle counts of a traced run's phases; an
	// untraced run is bounded by Seconds and reports its sample count.
	TraceCycles map[string]int `json:"trace_cycles"`
}

func run(name string, seed int64, seconds float64, traced bool, dir, out, daemon string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		DirFS: fsType(dir), GitCommit: gitCommit(), Seed: seed, Seconds: seconds, Traced: traced,
		TraceCycles: map[string]int{},
	}
	env.TmpfsDir = env.DirFS == "tmpfs"
	for _, w := range workloads {
		env.TraceCycles[w.name] = w.traceCycles
	}
	fmt.Fprintf(os.Stderr, "bench: nproc=%d GOMAXPROCS=%d %s dir=%s (%s) commit=%s seed=%d\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, dir, env.DirFS, env.GitCommit, seed)
	if env.TmpfsDir {
		fmt.Fprintln(os.Stderr, "bench: WARNING: -dir is on tmpfs, so fsync costs nothing and store times are not a disk's")
	}

	f := file{Env: env}
	if name == "all" {
		for _, w := range workloads {
			res, err := runChild(w.name, seed, seconds, traced, dir, daemon)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			f.Results = append(f.Results, res)
		}
	} else {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		if w.daemon && daemon == "" {
			var err error
			if daemon, err = buildDaemon(dir); err != nil {
				return err
			}
		}
		// Everything the run stores goes under one directory, removed at the
		// end; only span and result files stay in dir.
		runDir, err := os.MkdirTemp(dir, w.name+"-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(runDir)
		c := &config{w: w, seed: seed, seconds: seconds, scale: 1, dir: runDir, spanDir: dir, daemon: daemon}
		var res *result
		if traced {
			res, err = c.runTraced()
		} else {
			res, err = c.runEndToEnd()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		f.Results = []*result{res}
	}

	failed := 0
	for _, res := range f.Results {
		printResult(res)
		failed += res.Failed
	}
	if out != "" {
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if name != "all" {
		// The contract's result line: the last line of standard output.
		res := f.Results[0]
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
		})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed or restored outside the promise", failed)
	}
	return nil
}

// runChild runs one workload in a child process, so that peak_rss_mb is that
// workload's alone, and reads its result file back.
func runChild(name string, seed int64, seconds float64, traced bool, dir, daemon string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, "child-"+name+".json")
	defer os.Remove(tmp)
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", traceArg, "-dir", dir, "-out", tmp, "-daemon", daemon)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a child that counted failed ops still wrote its file
	data, err := os.ReadFile(tmp)
	if err != nil {
		return nil, fmt.Errorf("child: %v, %w", runErr, err)
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil || len(f.Results) != 1 {
		return nil, fmt.Errorf("child result file: %d results, %v", len(f.Results), err)
	}
	return f.Results[0], nil
}

// buildDaemon compiles cmd/lossyckptd into dir. It works from the benchmark's
// own directory, where go.mod names the repository; run.sh builds the daemon
// itself and passes -daemon.
func buildDaemon(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "lossyckptd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "lossyckpt/cmd/lossyckptd")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build lossyckptd (run from bench/, or pass -daemon): %v: %s", err, msg)
	}
	return bin, nil
}

func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d ops attempted, %d failed, %d cycles sampled, worst rel err %.4g%%, inputs made in %.2f s\n",
		res.Workload, res.Attempted, res.Failed, res.Samples, res.MaxRelErrPct, res.InputGenS)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem dir is on, from the statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
