// Command hopsfs is an interactive shell over a simulated HopsFS-CL
// cluster: it builds a three-AZ deployment and executes file system and
// failure-injection commands against it.
//
// Usage:
//
//	hopsfs [-setup "HopsFS-CL (3,3)"] [-seed N] [demo | chaos <schedule-file>]
//
// With "demo" it runs a scripted tour (namespace ops, atomic rename, AZ
// failure, split brain). With "chaos <schedule-file>" it runs the fault
// schedule under the chaos engine's audited workload and prints the
// campaign report (see DESIGN.md for the schedule syntax). Without
// arguments it reads commands from stdin:
//
//	mkdir <path>          create a directory (parents created as needed)
//	put <path> <size>     write a file of <size> bytes (e.g. 64K, 300M)
//	cat <path>            read a file
//	ls <path>             list a directory
//	stat <path>           show metadata
//	mv <src> <dst>        atomic rename
//	rm [-r] <path>        delete
//	chmod <octal> <path>  set permissions
//	fail-zone <1|2|3>     fail an availability zone
//	partition <a> <b>     sever the network between two zones
//	heal <a> <b>          restore it
//	fail-nn <i>           kill metadata server i
//	leader                show the elected leader
//	stats                 show cluster counters
//	zone <1|2|3>          switch the client's availability zone
//	help | quit
package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hopsfscl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hopsfs:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	setupName := "HopsFS-CL (3,3)"
	seed := int64(1)
	demo := false
	chaosFile := ""
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-setup":
			i++
			if i >= len(args) {
				return fmt.Errorf("-setup needs a value")
			}
			setupName = args[i]
		case "-seed":
			i++
			if i >= len(args) {
				return fmt.Errorf("-seed needs a value")
			}
			v, err := strconv.ParseInt(args[i], 10, 64)
			if err != nil {
				return err
			}
			seed = v
		case "demo":
			demo = true
		case "chaos":
			i++
			if i >= len(args) {
				return fmt.Errorf("chaos needs a schedule file")
			}
			chaosFile = args[i]
		default:
			return fmt.Errorf("unknown argument %q", args[i])
		}
	}

	fmt.Printf("building %s (seed %d)...\n", setupName, seed)
	cluster, err := hopsfscl.New(hopsfscl.WithSetup(setupName), hopsfscl.WithSeed(seed))
	if err != nil {
		return err
	}
	defer cluster.Close()
	fmt.Printf("zones: %s — leader: nn-%d\n", strings.Join(cluster.Zones(), ", "), cluster.LeaderID())

	if chaosFile != "" {
		return runChaos(cluster, chaosFile, seed)
	}
	sh := &shell{cluster: cluster, fs: cluster.Client(1), zone: 1}
	if demo {
		return sh.demo()
	}
	return sh.repl()
}

// runChaos executes a fault schedule file under the chaos engine and
// prints the campaign report.
func runChaos(cluster *hopsfscl.Cluster, file string, seed int64) error {
	text, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	fmt.Printf("running chaos schedule %s (workload seed %d)...\n", file, seed)
	rep, err := cluster.RunChaos(string(text), seed)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	if rep.Clean() {
		fmt.Println("campaign clean: all invariants held, and the history linearizes.")
	} else {
		fmt.Println("campaign found VIOLATIONS — see above.")
	}
	return nil
}

type shell struct {
	cluster *hopsfscl.Cluster
	fs      *hopsfscl.FS
	zone    int
}

func (s *shell) repl() error {
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("hopsfs> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "quit" || line == "exit" {
			return nil
		}
		if line != "" {
			if err := s.eval(strings.Fields(line)); err != nil {
				fmt.Println("error:", err)
			}
		}
		fmt.Print("hopsfs> ")
	}
	return scanner.Err()
}

func (s *shell) eval(f []string) error {
	switch f[0] {
	case "help":
		fmt.Println("commands: mkdir put cat ls stat mv rm chmod fail-zone partition heal fail-nn leader stats zone quit")
		return nil
	case "mkdir":
		if len(f) != 2 {
			return fmt.Errorf("usage: mkdir <path>")
		}
		return s.fs.MkdirAll(f[1])
	case "put":
		if len(f) != 3 {
			return fmt.Errorf("usage: put <path> <size>")
		}
		size, err := parseSize(f[2])
		if err != nil {
			return err
		}
		if err := s.fs.WriteFile(f[1], size); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", f[1], size)
		return nil
	case "cat":
		if len(f) != 2 {
			return fmt.Errorf("usage: cat <path>")
		}
		info, err := s.fs.ReadFile(f[1])
		if err != nil {
			return err
		}
		where := "inline in NDB"
		if info.Blocks > 0 {
			where = fmt.Sprintf("%d blocks", info.Blocks)
		}
		fmt.Printf("read %s: %d bytes (%s)\n", f[1], info.Size, where)
		return nil
	case "ls":
		if len(f) != 2 {
			return fmt.Errorf("usage: ls <path>")
		}
		kids, err := s.fs.List(f[1])
		if err != nil {
			return err
		}
		for _, k := range kids {
			kind := "-"
			if k.Dir {
				kind = "d"
			}
			fmt.Printf("%s %04o %-8s %10d  %s\n", kind, k.Perm, k.Owner, k.Size, k.Name)
		}
		return nil
	case "stat":
		if len(f) != 2 {
			return fmt.Errorf("usage: stat <path>")
		}
		info, err := s.fs.Stat(f[1])
		if err != nil {
			return err
		}
		fmt.Printf("%+v\n", info)
		return nil
	case "mv":
		if len(f) != 3 {
			return fmt.Errorf("usage: mv <src> <dst>")
		}
		return s.fs.Rename(f[1], f[2])
	case "rm":
		recursive := false
		path := ""
		switch {
		case len(f) == 2:
			path = f[1]
		case len(f) == 3 && f[1] == "-r":
			recursive, path = true, f[2]
		default:
			return fmt.Errorf("usage: rm [-r] <path>")
		}
		return s.fs.Delete(path, recursive)
	case "chmod":
		if len(f) != 3 {
			return fmt.Errorf("usage: chmod <octal> <path>")
		}
		perm, err := strconv.ParseUint(f[1], 8, 16)
		if err != nil {
			return err
		}
		return s.fs.SetPermission(f[2], uint16(perm))
	case "fail-zone":
		z, err := zoneArg(f, 2)
		if err != nil {
			return err
		}
		s.cluster.FailZone(z)
		fmt.Printf("zone %d failed; leader is now nn-%d\n", z, s.cluster.LeaderID())
		return nil
	case "partition", "heal":
		if len(f) != 3 {
			return fmt.Errorf("usage: %s <a> <b>", f[0])
		}
		a, err := parseZone(f[1])
		if err != nil {
			return err
		}
		b, err := parseZone(f[2])
		if err != nil {
			return err
		}
		if f[0] == "heal" {
			s.cluster.HealZones(a, b)
			return nil
		}
		s.cluster.PartitionZones(a, b)
		fmt.Println("partition injected; the arbitrator resolves the split brain")
		return nil
	case "fail-nn":
		if len(f) != 2 {
			return fmt.Errorf("usage: fail-nn <i>")
		}
		i, err := strconv.Atoi(f[1])
		if err != nil {
			return err
		}
		if err := s.cluster.FailNameNode(i); err != nil {
			return err
		}
		fmt.Printf("nn-%d failed; leader is now nn-%d\n", i, s.cluster.LeaderID())
		return nil
	case "leader":
		fmt.Printf("leader: nn-%d\n", s.cluster.LeaderID())
		return nil
	case "stats":
		st := s.cluster.Stats()
		fmt.Printf("committed txns:     %d\n", st.CommittedTxns)
		fmt.Printf("aborted txns:       %d\n", st.AbortedTxns)
		fmt.Printf("cross-AZ traffic:   %d bytes\n", st.CrossZoneBytes)
		fmt.Printf("total traffic:      %d bytes\n", st.TotalBytes)
		fmt.Printf("re-replications:    %d\n", st.ReReplications)
		fmt.Printf("storage nodes up:   %d\n", st.AliveStorageNodes)
		fmt.Printf("metadata servers:   %d\n", st.AliveNameNodes)
		return nil
	case "zone":
		z, err := zoneArg(f, 2)
		if err != nil {
			return err
		}
		s.zone = z
		s.fs = s.cluster.Client(z)
		fmt.Printf("client now in zone %d\n", z)
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", f[0])
	}
}

func zoneArg(f []string, n int) (int, error) {
	if len(f) != n {
		return 0, fmt.Errorf("usage: %s <zone>", f[0])
	}
	return parseZone(f[1])
}

func parseZone(s string) (int, error) {
	z, err := strconv.Atoi(s)
	if err != nil || z < 1 || z > 3 {
		return 0, fmt.Errorf("zone must be 1, 2 or 3")
	}
	return z, nil
}

// demo runs the scripted tour.
func (s *shell) demo() error {
	steps := [][]string{
		{"mkdir", "/warehouse/events"},
		{"put", "/warehouse/events/part-0", "64K"},
		{"put", "/warehouse/events/part-1", "300M"},
		{"ls", "/warehouse/events"},
		{"mv", "/warehouse/events", "/warehouse/events-v2"},
		{"ls", "/warehouse/events-v2"},
		{"stats"},
		{"fail-zone", "2"},
		{"cat", "/warehouse/events-v2/part-1"},
		{"put", "/warehouse/events-v2/part-2", "1M"},
		{"stats"},
	}
	for _, step := range steps {
		fmt.Printf("hopsfs> %s\n", strings.Join(step, " "))
		if err := s.eval(step); err != nil {
			return fmt.Errorf("%s: %w", step[0], err)
		}
	}
	fmt.Println("demo complete: the file system survived an AZ failure with no loss of service.")
	return nil
}

func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}
