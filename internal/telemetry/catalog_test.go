package telemetry_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	// Every package that registers a stampede_* family on the default
	// registry, at import.
	_ "repro/internal/archive"
	_ "repro/internal/dashboard"
	_ "repro/internal/eventlog"
	_ "repro/internal/health"
	_ "repro/internal/loader"
	_ "repro/internal/mq"
	_ "repro/internal/relstore"
	_ "repro/internal/trace"
	_ "repro/internal/views"

	"repro/internal/telemetry"
)

// TestMetricCatalog holds DESIGN.md's Telemetry table to what the process
// registers: every stampede_* family has a row.
func TestMetricCatalog(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section, _, _ := strings.Cut(string(design[strings.Index(string(design), "\n## Telemetry\n")+1:]), "\n## Event tracing")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`(stampede_[^`]*)`").FindAllStringSubmatch(section, -1) {
		for _, name := range expandBraces(m[1]) {
			documented[name] = true
		}
	}
	registered := 0
	for _, name := range telemetry.FamilyNames(telemetry.Default()) {
		if !strings.HasPrefix(name, "stampede_") {
			continue
		}
		registered++
		if !documented[name] {
			t.Errorf("%s is registered but has no row in DESIGN.md's Telemetry table", name)
		}
	}
	if registered == 0 {
		t.Fatal("no stampede_* family registered")
	}
}

// expandBraces expands a documented family name: a comma group after an
// underscore (_{read,malformed}_total) stands for one name per
// alternative, and any other group ({shard}, {shard,reason}) is a label
// list, not part of the name.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	group, rest := s[open+1:end], s[end+1:]
	if !strings.Contains(group, ",") || !strings.HasSuffix(s[:open], "_") {
		return expandBraces(s[:open] + rest)
	}
	var out []string
	for _, alt := range strings.Split(group, ",") {
		out = append(out, expandBraces(s[:open]+alt+rest)...)
	}
	return out
}
