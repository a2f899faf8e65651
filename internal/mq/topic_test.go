package mq

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMatchTopic(t *testing.T) {
	cases := []struct {
		pattern, key string
		want         bool
	}{
		// Exact matches.
		{"stampede.xwf.start", "stampede.xwf.start", true},
		{"stampede.xwf.start", "stampede.xwf.end", false},
		// Single-word wildcard.
		{"stampede.*.start", "stampede.xwf.start", true},
		{"stampede.*.start", "stampede.inv.start", true},
		{"stampede.*.start", "stampede.job_inst.main.start", false},
		{"*", "stampede", true},
		{"*", "stampede.xwf", false},
		// Multi-word wildcard, the paper's examples.
		{"stampede.job.#", "stampede.job.info", true},
		{"stampede.job.#", "stampede.job.edge", true},
		{"stampede.job.#", "stampede.job", true}, // zero words
		{"stampede.job.#", "stampede.task.info", false},
		{"stampede.job_inst.main.#", "stampede.job_inst.main.start", true},
		{"stampede.job_inst.mainjob", "stampede.job_inst.mainjob", true},
		{"#", "anything.at.all", true},
		{"#", "", true},
		{"stampede.#", "stampede.job_inst.main.end", true},
		{"stampede.#.end", "stampede.job_inst.main.end", true},
		{"stampede.#.end", "stampede.xwf.end", true},
		{"stampede.#.end", "stampede.xwf.start", false},
		// Mixed.
		{"*.xwf.#", "stampede.xwf.start", true},
		{"*.xwf.#", "xwf.start", false},
		// Empty key only matches # patterns.
		{"", "", true},
		{"a", "", false},
	}
	for _, tc := range cases {
		if got := MatchTopic(tc.pattern, tc.key); got != tc.want {
			t.Errorf("MatchTopic(%q, %q) = %v, want %v", tc.pattern, tc.key, got, tc.want)
		}
	}
}

func TestMatchTopicPropertyExactAlwaysMatchesSelf(t *testing.T) {
	f := func(words []uint8) bool {
		if len(words) == 0 {
			return true
		}
		parts := make([]string, 0, len(words)%6+1)
		for i := 0; i < len(words)%6+1 && i < len(words); i++ {
			parts = append(parts, string(rune('a'+words[i]%26)))
		}
		key := strings.Join(parts, ".")
		return MatchTopic(key, key) && MatchTopic("#", key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatchTopicPropertyPrefixHash(t *testing.T) {
	// pattern w1.w2.# must match any key with that two-word prefix.
	f := func(a, b, extra uint8, depth uint8) bool {
		w1 := string(rune('a' + a%26))
		w2 := string(rune('a' + b%26))
		key := w1 + "." + w2
		for i := uint8(0); i < depth%4; i++ {
			key += "." + string(rune('a'+(extra+i)%26))
		}
		return MatchTopic(w1+"."+w2+".#", key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// MatchTopic reports whether the routing key matches the binding pattern
// under AMQP topic-exchange rules.
func MatchTopic(pattern, key string) bool {
	return matchWords(splitTopic(pattern), splitTopic(key))
}
