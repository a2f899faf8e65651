package yang

import (
	"strings"
	"testing"
)

const sampleSchema = `
// Sample mirroring the paper's published snippets.
module stampede-sample {
    typedef nl_ts {
        type string;
        description "Timestamp, ISO8601 or seconds since 1/1/1970";
    }
    typedef uuid {
        type string;
    }
    grouping base-event {
        description "Common components in all events";
        leaf ts {
            type nl_ts;
            mandatory "true";
            description
              "Timestamp, ISO8601 or seconds since 1/1/1970";
        }
        leaf level { type string; }
        leaf xwf.id {
            type uuid;
            description "Executable workflow id";
        }
    }
    container stampede.xwf.start {
        uses base-event;
        leaf restart_count {
            type uint32;
            mandatory "true";
            description "Number of times workflow was" +
                        " restarted (due to failures)";
        }
    }
    container stampede.xwf.end {
        uses base-event;
        leaf status {
            type int32;
            mandatory "true";
        }
        leaf state {
            type enumeration {
                enum WORKFLOW_TERMINATED;
                enum WORKFLOW_FAILURE;
            }
        }
    }
}
`

func mustModel(t *testing.T, src string) *Model {
	t.Helper()
	root, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m, err := Resolve(root)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return m
}

func TestParseAndResolveSample(t *testing.T) {
	m := mustModel(t, sampleSchema)
	if m.ModuleName != "stampede-sample" {
		t.Errorf("module name %q", m.ModuleName)
	}
	if len(m.Containers) != 2 {
		t.Fatalf("containers = %d, want 2", len(m.Containers))
	}
	c := m.Containers["stampede.xwf.start"]
	if c == nil {
		t.Fatal("missing stampede.xwf.start")
	}
	// base-event leaves expanded first, then own leaves.
	want := []string{"ts", "level", "xwf.id", "restart_count"}
	got := c.LeafNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("leaf order %v, want %v", got, want)
	}
	rc := c.Leaves["restart_count"]
	if !rc.Mandatory || rc.Type != TypeUint32 {
		t.Fatalf("restart_count = %+v", rc)
	}
	if !strings.Contains(rc.Description, "restarted (due to failures)") {
		t.Fatalf("string concatenation lost: %q", rc.Description)
	}
	if ts := c.Leaves["ts"]; ts.Type != TypeTimestamp || !ts.Mandatory {
		t.Fatalf("ts leaf = %+v", ts)
	}
	if id := c.Leaves["xwf.id"]; id.Type != TypeUUID {
		t.Fatalf("xwf.id type = %v", id.Type)
	}
}

func TestEnumResolution(t *testing.T) {
	m := mustModel(t, sampleSchema)
	st := m.Containers["stampede.xwf.end"].Leaves["state"]
	if st.Type != TypeEnum || len(st.EnumValues) != 2 {
		t.Fatalf("state leaf = %+v", st)
	}
	if err := st.CheckValue("WORKFLOW_TERMINATED"); err != nil {
		t.Errorf("valid enum rejected: %v", err)
	}
	if err := st.CheckValue("NOPE"); err == nil {
		t.Error("invalid enum accepted")
	}
}

func TestContainerOrderPreserved(t *testing.T) {
	m := mustModel(t, sampleSchema)
	names := m.ContainerNames()
	if len(names) != 2 || names[0] != "stampede.xwf.start" || names[1] != "stampede.xwf.end" {
		t.Fatalf("order = %v", names)
	}
}

func TestCheckValueTypes(t *testing.T) {
	cases := []struct {
		typ  LeafType
		ok   []string
		bad  []string
		name string
	}{
		{TypeString, []string{"", "anything at all"}, nil, "string"},
		{TypeInt32, []string{"0", "-5", "2147483647"}, []string{"x", "2147483648", "1.5"}, "int32"},
		{TypeUint32, []string{"0", "4294967295"}, []string{"-1", "4294967296", "nan"}, "uint32"},
		{TypeInt64, []string{"-9223372036854775808"}, []string{"abc"}, "int64"},
		{TypeDecimal, []string{"74.0", "-1", "1e3"}, []string{"seventy"}, "decimal"},
		{TypeUUID, []string{"ea17e8ac-02ac-4909-b5e3-16e367392556", "EA17E8AC-02AC-4909-B5E3-16E367392556"},
			[]string{"", "nope", "ea17e8ac02ac4909b5e316e367392556", "zz17e8ac-02ac-4909-b5e3-16e367392556"}, "uuid"},
		{TypeTimestamp, []string{"2012-03-13T12:35:38.000000Z", "1331642138.25"},
			[]string{"yesterday", "NaN", "1e300", "-1e20", ""}, "nl_ts"},
	}
	for _, tc := range cases {
		l := &Leaf{Name: tc.name, Type: tc.typ}
		for _, v := range tc.ok {
			if err := l.CheckValue(v); err != nil {
				t.Errorf("%s: CheckValue(%q) = %v, want ok", tc.name, v, err)
			}
		}
		for _, v := range tc.bad {
			if err := l.CheckValue(v); err == nil {
				t.Errorf("%s: CheckValue(%q) accepted", tc.name, v)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no module":          `container x { leaf a { type string; } }`,
		"two modules":        `module a { container c { leaf l { type string; } } } module b { }`,
		"unclosed brace":     `module a { container c { leaf l { type string; }`,
		"missing terminator": `module a { container c { leaf l { type string } } }`,
		"trailing garbage":   `module a { container c { leaf l { type string; } } } }`,
		"unterminated str":   `module a { description "oops; }`,
		"dangling plus":      `module a { description "x" + ; }`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

func TestResolveErrors(t *testing.T) {
	cases := map[string]string{
		"unknown grouping": `module m { container c { uses nope; } }`,
		"unknown type":     `module m { container c { leaf l { type mystery; } } }`,
		"leaf no type":     `module m { container c { leaf l { mandatory "true"; } } }`,
		"bad mandatory":    `module m { container c { leaf l { type string; mandatory "maybe"; } } }`,
		"dup leaf":         `module m { container c { leaf l { type string; } leaf l { type string; } } }`,
		"dup container":    `module m { container c { leaf l { type string; } } container c { leaf l { type string; } } }`,
		"empty module":     `module m { }`,
		"empty enum":       `module m { container c { leaf l { type enumeration { } } } }`,
		"grouping cycle": `module m {
			grouping a { uses b; }
			grouping b { uses a; }
			container c { uses a; }
		}`,
	}
	for name, src := range cases {
		root, err := Parse(src)
		if err != nil {
			t.Errorf("%s: unexpected parse error: %v", name, err)
			continue
		}
		if _, err := Resolve(root); err == nil {
			t.Errorf("%s: Resolve succeeded, want error", name)
		}
	}
}

func TestCommentsSkipped(t *testing.T) {
	src := `
	// leading comment
	module m { /* block
	   spanning lines */
		container c { leaf l { type string; } } // trailing
	}`
	m := mustModel(t, src)
	if len(m.Containers) != 1 {
		t.Fatalf("containers = %d", len(m.Containers))
	}
}

func TestNestedGroupingUses(t *testing.T) {
	src := `module m {
		grouping inner { leaf a { type string; } }
		grouping outer { uses inner; leaf b { type string; } }
		container c { uses outer; leaf d { type string; } }
	}`
	m := mustModel(t, src)
	c := m.Containers["c"]
	want := "a,b,d"
	if got := strings.Join(c.LeafNames(), ","); got != want {
		t.Fatalf("leaves %q, want %q", got, want)
	}
}

func TestDiamondGroupingAllowed(t *testing.T) {
	// The same grouping used by two siblings is not a cycle, but the leaf
	// collision must be reported as a duplicate.
	src := `module m {
		grouping shared { leaf a { type string; } }
		grouping g1 { uses shared; }
		container c { uses g1; uses shared; }
	}`
	root, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(root); err == nil || !strings.Contains(err.Error(), "duplicate leaf") {
		t.Fatalf("err = %v, want duplicate leaf", err)
	}
}
