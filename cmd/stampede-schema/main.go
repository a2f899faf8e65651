// stampede-schema prints the Stampede log-message schema: the pyang-style
// tree of every event type, or the full reference entry for one event —
// the machine-processable description §IV-B argues helps workflow-system
// developers write conformant log messages.
//
//	stampede-schema                       # tree of all events
//	stampede-schema -event stampede.inv.end
//	stampede-schema -validate file.bp.log # pyang-style validation run
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bp"
	"repro/internal/schema"
	"repro/internal/yang"
)

func main() {
	var (
		event    = flag.String("event", "", "describe one event type in full")
		validate = flag.String("validate", "", "validate a BP log file against the schema")
		strict   = flag.Bool("strict", false, "validation also rejects undeclared attributes")
	)
	flag.Parse()

	model, err := schema.Model()
	if err != nil {
		fatal("%v", err)
	}
	switch {
	case *validate != "":
		validateLog(*validate, *strict)
	case *event != "":
		out, err := yang.Describe(model, *event)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Print(out)
	default:
		fmt.Print(yang.Tree(model))
	}
}

func validateLog(path string, strict bool) {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	v, err := schema.NewValidator()
	if err != nil {
		fatal("%v", err)
	}
	v.Strict = strict
	r := bp.NewReader(f)
	r.SetLenient(true)
	total, invalid := 0, 0
	for {
		ev, err := r.Read()
		if err != nil {
			break
		}
		total++
		if verr := v.Validate(ev); verr != nil {
			invalid++
			fmt.Printf("line-level: %v\n", verr)
		}
	}
	fmt.Printf("%d events checked, %d invalid, %d malformed lines\n", total, invalid, r.Skipped())
	if invalid > 0 || r.Skipped() > 0 {
		os.Exit(2)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stampede-schema: "+format+"\n", args...)
	os.Exit(1)
}
