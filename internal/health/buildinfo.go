package health

import (
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// BuildInfo identifies what is running where: served at /api/buildinfo
// on every debug listener and embedded in each diagnostics bundle so a
// triage report starts from "which build, which node shape".
type BuildInfo struct {
	Module        string  `json:"module,omitempty"`
	Version       string  `json:"version,omitempty"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"vcs_revision,omitempty"`
	VCSTime       string  `json:"vcs_time,omitempty"`
	Dirty         bool    `json:"vcs_dirty,omitempty"`
	Partitions    int     `json:"partitions"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	PID           int     `json:"pid"`
}

var processStart = time.Now()

var readBuild = sync.OnceValue(func() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version(), PID: os.Getpid()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Module = bi.Main.Path
	b.Version = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.time":
			b.VCSTime = s.Value
		case "vcs.modified":
			b.Dirty = s.Value == "true"
		}
	}
	return b
})

// buildInfoLocked returns the process build identity plus this engine's
// node shape (partition count) and uptime.
func (e *Engine) buildInfoLocked() BuildInfo {
	b := readBuild()
	if e.store != nil {
		b.Partitions = e.store.NumPartitions()
	}
	b.UptimeSeconds = time.Since(processStart).Seconds()
	return b
}
