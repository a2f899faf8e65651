// stampede-replay rebuilds the archive+relstore from the event log — the
// append-only, content-addressed record of every raw BP line the loader
// ever ingested — and inspects the log itself. Because records carry
// only logical seq clocks (no wall time) and the rebuild runs through
// the same lenient loader as live ingest, a replay is deterministic: the
// same log prefix always materializes the same store, byte for byte
// (reported as the snapshot hash). The hash is also independent of the
// store's partition count, so a replay into a 16-partition store can be
// checked against a single-partition rebuild.
//
//	stampede-replay -dir soak-eventlog                 # replay all, print stats + snapshot hash
//	stampede-replay -dir soak-eventlog -upto 5000      # point-in-time: records [1, 5000)
//	stampede-replay -dir soak-eventlog -verify         # replay twice, fail on hash mismatch
//	stampede-replay -dir soak-eventlog -out pitr       # materialize into a durable store directory
//	stampede-replay -dir soak-eventlog -out st -parts 4  # ... with 4 partitions
//	stampede-replay -dir soak-eventlog -info           # segment map, seq range, torn-tail bytes
//	stampede-replay -store st -info                    # partition map, checkpoint high-water seqs
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/archive"
	"repro/internal/eventlog"
	"repro/internal/loader"
	"repro/internal/relstore"
)

func main() {
	var (
		dir      = flag.String("dir", "", "event log directory (required unless -store -info)")
		upto     = flag.Uint64("upto", 0, "replay records [1, upto); 0 = whole log")
		verify   = flag.Bool("verify", false, "replay twice and require identical snapshot hashes")
		out      = flag.String("out", "", "materialize into a durable store directory at this path instead of in memory")
		parts    = flag.Int("parts", 1, "with -out: partition count of a newly created store directory")
		storeDir = flag.String("store", "", "with -info: inspect a partitioned store directory instead of the event log")
		info     = flag.Bool("info", false, "inspect the log (segments, seq range, integrity) without replaying")
	)
	flag.Parse()

	if *info && *storeDir != "" {
		printStoreInfo(*storeDir)
		return
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "stampede-replay: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	lg, err := eventlog.Open(*dir, eventlog.Options{ReadOnly: true})
	if err != nil {
		fatal(err)
	}
	defer lg.Close()

	if *info {
		printInfo(lg)
		return
	}

	hash1, stats := replay(lg, *upto, *out, *parts)
	fmt.Printf("replayed %s\n", stats.String())
	fmt.Printf("snapshot hash %s\n", hash1)

	if *verify {
		hash2, _ := replay(lg, *upto, "", 0)
		if hash2 != hash1 {
			fmt.Fprintf(os.Stderr, "stampede-replay: NONDETERMINISTIC REPLAY: %s != %s\n", hash1, hash2)
			os.Exit(1)
		}
		fmt.Println("verify ok: second replay hashed identically")
	}
}

// replay rebuilds [1, upto) and returns the resulting snapshot hash. An
// empty out path means in memory; otherwise the store is a durable
// directory at out, created with parts partitions.
func replay(lg *eventlog.Log, upto uint64, out string, parts int) (string, loader.Stats) {
	var (
		arch  *archive.Archive
		stats loader.Stats
		err   error
	)
	if out == "" {
		arch, stats, err = eventlog.Rebuild(lg, upto)
	} else {
		arch, err = archive.OpenDir(out, relstore.Options{Partitions: parts})
		if err == nil {
			defer arch.Close()
			stats, err = eventlog.RebuildInto(lg, upto, arch)
		}
	}
	if err != nil {
		fatal(err)
	}
	sn := arch.Snapshot()
	defer sn.Close()
	hash, err := sn.Hash()
	if err != nil {
		fatal(err)
	}
	return hash, stats
}

func printInfo(lg *eventlog.Log) {
	info, err := lg.Info()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("records %d, seq range [%d, %d), %d bytes in %d segments\n",
		info.Records, info.FirstSeq, info.NextSeq, info.Bytes, len(info.Segments))
	if info.Truncated > 0 {
		fmt.Printf("torn tail: %d bytes past the last valid record (a crash mid-flush; recovery truncates them on a writable open)\n", info.Truncated)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "SEGMENT\tBASE\tLAST\tRECORDS\tBYTES")
	for _, sg := range info.Segments {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", sg.Path, sg.Base, sg.LastSeq, sg.Records, sg.Bytes)
	}
	w.Flush()
}

// printStoreInfo prints a partitioned store directory's partition map:
// per partition, the checkpoint high-water seq (every WAL record at or
// below it is folded into the newest durable image), the live WAL
// segment count, and the records a reopen would replay past the
// checkpoint.
func printStoreInfo(dir string) {
	info, err := relstore.InspectDir(dir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("store %s: %d partition(s)\n", dir, info.Partitions)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "PARTITION\tCKPT_SEQ\tCKPT_BYTES\tWAL_SEGMENTS\tTAIL_RECORDS\tLAST_SEQ")
	for _, p := range info.Parts {
		fmt.Fprintf(w, "p%03d\t%d\t%d\t%d\t%d\t%d\n",
			p.Partition, p.CheckpointSeq, p.CheckpointBytes, p.WALSegments, p.TailRecords, p.LastSeq)
	}
	w.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stampede-replay:", err)
	os.Exit(1)
}
