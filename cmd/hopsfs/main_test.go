package main

import (
	"testing"

	"hopsfscl"
)

func TestParseSize(t *testing.T) {
	tests := []struct {
		give    string
		want    int64
		wantErr bool
	}{
		{give: "0", want: 0},
		{give: "123", want: 123},
		{give: "64K", want: 64 << 10},
		{give: "300M", want: 300 << 20},
		{give: "2G", want: 2 << 30},
		{give: "x", wantErr: true},
		{give: "12Q", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseSize(tt.give)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseSize(%q) err = %v", tt.give, err)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("parseSize(%q) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

func TestShellEvalCommands(t *testing.T) {
	cluster, err := hopsfscl.New()
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sh := &shell{cluster: cluster, fs: cluster.Client(1), zone: 1}

	script := [][]string{
		{"mkdir", "/a/b"},
		{"put", "/a/b/f", "1K"},
		{"cat", "/a/b/f"},
		{"ls", "/a/b"},
		{"stat", "/a/b/f"},
		{"chmod", "600", "/a/b/f"},
		{"mv", "/a/b/f", "/a/g"},
		{"rm", "/a/g"},
		{"rm", "-r", "/a"},
		{"leader"},
		{"stats"},
		{"zone", "2"},
	}
	for _, cmd := range script {
		if err := sh.eval(cmd); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}
	if sh.zone != 2 {
		t.Fatalf("zone switch did not stick: %d", sh.zone)
	}
	// Error paths.
	for _, cmd := range [][]string{
		{"bogus"},
		{"mkdir"},
		{"put", "/x"},
		{"put", "/x", "nope"},
		{"zone", "9"},
		{"partition", "x", "3"},
		{"heal", "1", "9"},
		{"cat", "/missing"},
	} {
		if err := sh.eval(cmd); err == nil {
			t.Fatalf("%v succeeded, want error", cmd)
		}
	}
}

func TestShellDemoRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("demo drives a full cluster")
	}
	cluster, err := hopsfscl.New()
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sh := &shell{cluster: cluster, fs: cluster.Client(1), zone: 1}
	if err := sh.demo(); err != nil {
		t.Fatal(err)
	}
}

func TestRunArgParsing(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-setup"}); err == nil {
		t.Fatal("dangling -setup accepted")
	}
	if err := run([]string{"-seed", "zzz"}); err == nil {
		t.Fatal("bad seed accepted")
	}
	if err := run([]string{"-setup", "HopsFS (9,9)", "demo"}); err == nil {
		t.Fatal("bogus setup accepted")
	}
}
