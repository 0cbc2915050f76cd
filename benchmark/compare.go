package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// resultSet is what -all writes and -compare reads: every run of every
// workload on one commit, on one host. Claim is always null: the
// benchmark measures, a change that claims a gain cites two result
// sets.
type resultSet struct {
	Schema  int       `json:"schema"`
	Claim   *string   `json:"claim"`
	Seconds int       `json:"seconds"`
	Host    hostStamp `json:"host"`
	Records []record  `json:"records"`
}

// runAll runs every workload `runs` times, each run in its own process
// (a fresh heap, fresh calibration caches, its own peak RSS), with seeds
// seed..seed+runs-1.
func runAll(o options, runs int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	set := resultSet{Schema: 1, Seconds: o.seconds, Host: readHostStamp()}
	ok := true
	for _, w := range workloads {
		for r := 0; r < runs; r++ {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(o.seed+int64(r), 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", o.trace)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			rec, parseErr := parseRecord(stdout.Bytes())
			if parseErr != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v (%v)\n", w.name, o.seed+int64(r), parseErr, runErr)
				ok = false
				continue
			}
			ok = ok && rec.Correct
			set.Records = append(set.Records, rec)
		}
	}
	blob, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		fatalf("%v", err)
	}
	blob = append(blob, '\n')
	if out == "" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(out, blob, 0o644); err != nil {
		fatalf("%v", err)
	}
	if !ok {
		return 1
	}
	return 0
}

// parseRecord finds the full record a run printed ahead of its result
// line.
func parseRecord(stdout []byte) (record, error) {
	for _, line := range bytes.Split(stdout, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"record":`)) {
			continue
		}
		var wrap struct {
			Record record `json:"record"`
		}
		if err := json.Unmarshal(line, &wrap); err != nil {
			return record{}, err
		}
		return wrap.Record, nil
	}
	return record{}, fmt.Errorf("run printed no record")
}

// quartiles returns the first, second and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method),
// so spreads read the same here and in the driver.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func loadSet(path string) resultSet {
	blob, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var s resultSet
	if err := json.Unmarshal(blob, &s); err != nil {
		fatalf("parse %s: %v", path, err)
	}
	return s
}

// untraced groups a set's end-to-end records by workload.
func (s resultSet) untraced() map[string][]record {
	by := map[string][]record{}
	for _, r := range s.Records {
		if !r.Traced {
			by[r.Workload] = append(by[r.Workload], r)
		}
	}
	return by
}

// verdict judges one (workload, metric): worse is the share of the old
// median by which the new median is worse (negative when better).
// Where either side's spread is wider than the bound the medians do not
// resolve a move of that size: the verdict is unresolved unless every
// new run reads on one side of every old run.
func verdict(m metricDef, old, cur []float64) (worse float64, v string) {
	_, om, _ := quartiles(old)
	_, nm, _ := quartiles(cur)
	if om == 0 {
		return 0, "ok"
	}
	sign := 1.0
	if m.better == "higher" {
		sign = -1
	}
	worse = sign * (nm - om) / om
	if spread(old) > m.bound || spread(cur) > m.bound {
		allWorse, noneWorse := true, true
		for _, o := range old {
			for _, c := range cur {
				if sign*(c-o) > 0 {
					noneWorse = false
				} else {
					allWorse = false
				}
			}
		}
		switch {
		case noneWorse:
			return worse, "ok"
		case allWorse && worse > m.bound:
			return worse, "regressed"
		default:
			return worse, "unresolved"
		}
	}
	if worse > m.bound {
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) and the
// digest comparison per (workload, seed); it returns the exit code. A
// digest that changed for a seed both sets ran means the program now
// computes something else — QoS and energy with it, whatever their
// medians over the seeds say — and fails the comparison unless the
// change was declared to do so (digestChange).
func compareFiles(oldPath, newPath string, digestChange bool) int {
	oldSet, newSet := loadSet(oldPath), loadSet(newPath)
	if oldSet.Host != newSet.Host {
		fmt.Printf("WARNING: hosts differ, timings are not comparable\n  old: %+v\n  new: %+v\n", oldSet.Host, newSet.Host)
	}
	oldBy, newBy := oldSet.untraced(), newSet.untraced()
	exit := 0
	fmt.Printf("%-20s %-22s %14s %14s  %-26s %6s  %s\n", "workload", "metric", "old median", "new median", "ratio (base: old median)", "bound", "verdict")
	for _, w := range workloads {
		olds, news := oldBy[w.name], newBy[w.name]
		if len(olds) == 0 || len(news) == 0 {
			fmt.Printf("%-20s missing on one side (%d old runs, %d new runs)\n", w.name, len(olds), len(news))
			continue
		}
		for _, m := range endToEndMetrics {
			ov, nv := metricValues(olds, m.name), metricValues(news, m.name)
			_, om, _ := quartiles(ov)
			_, nm, _ := quartiles(nv)
			worse, v := verdict(m, ov, nv)
			if v == "regressed" {
				exit = 1
			}
			ratio := "n/a"
			if om != 0 {
				ratio = fmt.Sprintf("%.4fx of %.6g %s", nm/om, om, m.unit)
			}
			fmt.Printf("%-20s %-22s %14.6g %14.6g  %-26s %6.3f  %s (worse by %+.2f%%, spread old %.2f%% new %.2f%%, n %d/%d)\n",
				w.name, m.name, om, nm, ratio, m.bound, v, 100*worse, 100*spread(ov), 100*spread(nv), len(ov), len(nv))
		}

		// Simulated outcome: the digest repeats exactly for a seed.
		oldDigest := map[int64]string{}
		for _, r := range olds {
			oldDigest[r.Seed] = r.Digest
		}
		var same, changed []string
		for _, r := range news {
			if d, ok := oldDigest[r.Seed]; ok {
				if d == r.Digest {
					same = append(same, strconv.FormatInt(r.Seed, 10))
				} else {
					changed = append(changed, strconv.FormatInt(r.Seed, 10))
				}
			}
		}
		fmt.Printf("%-20s digest: equal for seeds [%s], changed for seeds [%s]\n", w.name, strings.Join(same, " "), strings.Join(changed, " "))
		if len(changed) > 0 && !digestChange {
			fmt.Printf("%-20s the simulated trajectory changed and -digest-change was not given\n", w.name)
			exit = 1
		}

		of, nf := failedShare(olds), failedShare(news)
		if nf > of {
			fmt.Printf("%-20s failed intervals rose: %.6g -> %.6g of attempted\n", w.name, of, nf)
			exit = 1
		}
		for _, r := range news {
			if !r.Correct {
				fmt.Printf("%-20s seed %d: output checks failed: %v\n", w.name, r.Seed, r.Problems)
				exit = 1
			}
		}
	}
	return exit
}

func metricValues(rs []record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failedShare(rs []record) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
