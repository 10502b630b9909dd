package hopsfscl_test

import (
	"fmt"
	"log"

	"hopsfscl"
)

// Example builds the paper's headline deployment, writes a small and a
// large file, survives an AZ failure, and performs the atomic rename that
// object stores cannot.
func Example() {
	cluster, err := hopsfscl.New()
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	fs := cluster.Client(1)
	if err := fs.MkdirAll("/data"); err != nil {
		log.Fatal(err)
	}
	if err := fs.WriteFile("/data/small", 64<<10); err != nil {
		log.Fatal(err)
	}
	if err := fs.WriteFile("/data/large", 300<<20); err != nil {
		log.Fatal(err)
	}

	small, _ := fs.ReadFile("/data/small")
	large, _ := fs.ReadFile("/data/large")
	fmt.Printf("small inline=%v blocks=%d\n", small.Inline, small.Blocks)
	fmt.Printf("large inline=%v blocks=%d\n", large.Inline, large.Blocks)

	cluster.FailZone(2)
	if _, err := fs.ReadFile("/data/large"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("readable after AZ failure: true")

	if err := fs.Rename("/data", "/archive"); err != nil {
		log.Fatal(err)
	}
	kids, _ := fs.List("/archive")
	fmt.Printf("entries after atomic rename: %d\n", len(kids))

	// Output:
	// small inline=true blocks=0
	// large inline=false blocks=3
	// readable after AZ failure: true
	// entries after atomic rename: 2
}

// ExampleRunExperiment regenerates one of the paper's artefacts.
func ExampleRunExperiment() {
	out, err := hopsfscl.RunExperiment("table2", false, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(out) > 0)
	// Output: true
}

// Example_rename commits a job the way data lake frameworks do, by renaming
// its staging directory into place (§I). On an object store that copies
// every object; here it is one metadata transaction whatever the directory
// holds. A directory's children are keyed by its inode id, not by its name,
// so the rename rewrites the directory's own row and none of its children's:
// it sends the bytes an empty directory's rename sends. It stays atomic
// across an AZ failure.
func Example_rename() {
	cluster, err := hopsfscl.New(hopsfscl.WithoutBlockLayer())
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fs := cluster.Client(1)

	// A job writes 100 output files into its staging directory; another
	// job's stays empty.
	for _, dir := range []string{"/warehouse/sales/.staging", "/warehouse/sales/.empty"} {
		if err := fs.MkdirAll(dir); err != nil {
			log.Fatal(err)
		}
	}
	const files = 100
	for i := 0; i < files; i++ {
		if err := fs.Create(fmt.Sprintf("/warehouse/sales/.staging/part-%05d", i)); err != nil {
			log.Fatal(err)
		}
	}
	rename := func(src, dst string) (txns, bytes int64) {
		before := cluster.Stats()
		if err := fs.Rename(src, dst); err != nil {
			log.Fatal(err)
		}
		after := cluster.Stats()
		return after.CommittedTxns - before.CommittedTxns, after.TotalBytes - before.TotalBytes
	}
	txns, bytes := rename("/warehouse/sales/.staging", "/warehouse/sales/2026-07-05")
	_, empty := rename("/warehouse/sales/.empty", "/warehouse/sales/2026-07-06")
	fmt.Printf("renamed a %d-file directory in %d metadata transaction\n", files, txns)
	fmt.Println("sent the bytes of an empty directory's rename:", bytes == empty)

	kids, err := fs.List("/warehouse/sales/2026-07-05")
	if err != nil {
		log.Fatal(err)
	}
	_, err = fs.Stat("/warehouse/sales/.staging")
	fmt.Printf("under the new name: %d files; the old name is gone: %v\n", len(kids), err != nil)

	cluster.FailZone(3)
	if err := fs.Rename("/warehouse/sales/2026-07-05", "/warehouse/sales/final"); err != nil {
		log.Fatal(err)
	}
	if kids, err = fs.List("/warehouse/sales/final"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("renamed again after an AZ failure: %d files\n", len(kids))

	// Output:
	// renamed a 100-file directory in 1 metadata transaction
	// sent the bytes of an empty directory's rename: true
	// under the new name: 100 files; the old name is gone: true
	// renamed again after an AZ failure: 100 files
}
