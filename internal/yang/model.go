package yang

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/bp"
)

// LeafType enumerates the value types the Stampede schema uses.
type LeafType int

const (
	TypeString LeafType = iota
	TypeInt32
	TypeUint32
	TypeInt64
	TypeDecimal // decimal64 — durations and fractional seconds
	TypeUUID
	TypeTimestamp // nl_ts — ISO 8601 or seconds since the epoch
	TypeEnum
)

func (t LeafType) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt32:
		return "int32"
	case TypeUint32:
		return "uint32"
	case TypeInt64:
		return "int64"
	case TypeDecimal:
		return "decimal64"
	case TypeUUID:
		return "uuid"
	case TypeTimestamp:
		return "nl_ts"
	case TypeEnum:
		return "enumeration"
	}
	return "unknown"
}

// Leaf is one attribute of an event container.
type Leaf struct {
	Name        string
	Type        LeafType
	Mandatory   bool
	Description string
	EnumValues  []string // populated for TypeEnum
}

// Container is one event definition: its full dotted name and its leaves,
// with grouping uses already expanded.
type Container struct {
	Name        string
	Description string
	Leaves      map[string]*Leaf
	order       []string
	leaves      []*Leaf
}

// LeafNames returns leaf names in declaration order (base-event leaves
// first, then the container's own).
func (c *Container) LeafNames() []string { return append([]string(nil), c.order...) }

// OrderedLeaves returns the leaves in declaration order. The slice is the
// container's own and must not be mutated; the per-event validation hot
// path ranges over it directly so checking an event costs zero
// allocations and no map lookups.
func (c *Container) OrderedLeaves() []*Leaf { return c.leaves }

// Model is a resolved YANG module: every container (event definition)
// indexed by name.
type Model struct {
	ModuleName string
	Containers map[string]*Container
	order      []string
}

// ContainerNames returns event names in declaration order.
func (m *Model) ContainerNames() []string { return append([]string(nil), m.order...) }

// Resolve turns a parsed module statement into a Model: typedefs are
// registered, groupings collected, and each container's "uses" statements
// expanded into concrete leaves.
func Resolve(module *Statement) (*Model, error) {
	if module.Keyword != "module" {
		return nil, fmt.Errorf("yang: Resolve wants a module, got %q", module.Keyword)
	}
	r := &resolver{
		typedefs:  map[string]LeafType{},
		groupings: map[string]*Statement{},
	}
	// Pass 1: typedefs and groupings.
	for _, st := range module.Subs {
		switch st.Keyword {
		case "typedef":
			base := st.ArgOf("type")
			t, err := r.leafType(base, st)
			if err != nil {
				return nil, fmt.Errorf("yang: typedef %q: %w", st.Arg, err)
			}
			r.typedefs[st.Arg] = t
		case "grouping":
			if _, dup := r.groupings[st.Arg]; dup {
				return nil, fmt.Errorf("yang: duplicate grouping %q at line %d", st.Arg, st.Line)
			}
			r.groupings[st.Arg] = st
		}
	}
	// Pass 2: containers.
	m := &Model{ModuleName: module.Arg, Containers: map[string]*Container{}}
	for _, st := range module.Subs {
		if st.Keyword != "container" {
			continue
		}
		c := &Container{
			Name:        st.Arg,
			Description: st.ArgOf("description"),
			Leaves:      map[string]*Leaf{},
		}
		if err := r.expandInto(c, st, map[string]bool{}); err != nil {
			return nil, fmt.Errorf("yang: container %q: %w", st.Arg, err)
		}
		if _, dup := m.Containers[c.Name]; dup {
			return nil, fmt.Errorf("yang: duplicate container %q at line %d", c.Name, st.Line)
		}
		m.Containers[c.Name] = c
		m.order = append(m.order, c.Name)
	}
	if len(m.Containers) == 0 {
		return nil, fmt.Errorf("yang: module %q declares no containers", module.Arg)
	}
	return m, nil
}

type resolver struct {
	typedefs  map[string]LeafType
	groupings map[string]*Statement
}

func (r *resolver) expandInto(c *Container, st *Statement, seen map[string]bool) error {
	for _, sub := range st.Subs {
		switch sub.Keyword {
		case "uses":
			name := sub.Arg
			if seen[name] {
				return fmt.Errorf("grouping cycle through %q (line %d)", name, sub.Line)
			}
			g, ok := r.groupings[name]
			if !ok {
				return fmt.Errorf("unknown grouping %q (line %d)", name, sub.Line)
			}
			seen[name] = true
			if err := r.expandInto(c, g, seen); err != nil {
				return err
			}
			delete(seen, name)
		case "leaf":
			leaf, err := r.leaf(sub)
			if err != nil {
				return err
			}
			if _, dup := c.Leaves[leaf.Name]; dup {
				return fmt.Errorf("duplicate leaf %q (line %d)", leaf.Name, sub.Line)
			}
			c.Leaves[leaf.Name] = leaf
			c.order = append(c.order, leaf.Name)
			c.leaves = append(c.leaves, leaf)
		}
	}
	return nil
}

func (r *resolver) leaf(st *Statement) (*Leaf, error) {
	typeStmt := st.Find("type")
	if typeStmt == nil {
		return nil, fmt.Errorf("leaf %q (line %d) has no type", st.Arg, st.Line)
	}
	t, err := r.leafType(typeStmt.Arg, st)
	if err != nil {
		return nil, fmt.Errorf("leaf %q: %w", st.Arg, err)
	}
	l := &Leaf{
		Name:        st.Arg,
		Type:        t,
		Description: st.ArgOf("description"),
	}
	if t == TypeEnum {
		for _, e := range typeStmt.FindAll("enum") {
			l.EnumValues = append(l.EnumValues, e.Arg)
		}
		if len(l.EnumValues) == 0 {
			return nil, fmt.Errorf("leaf %q: enumeration with no enum values", st.Arg)
		}
	}
	switch mand := st.ArgOf("mandatory"); mand {
	case "", "false":
	case "true":
		l.Mandatory = true
	default:
		return nil, fmt.Errorf("leaf %q: bad mandatory value %q", st.Arg, mand)
	}
	return l, nil
}

func (r *resolver) leafType(name string, ctx *Statement) (LeafType, error) {
	switch name {
	case "string":
		return TypeString, nil
	case "int32", "int16", "int8":
		return TypeInt32, nil
	case "uint32", "uint16", "uint8":
		return TypeUint32, nil
	case "int64", "uint64":
		return TypeInt64, nil
	case "decimal64":
		return TypeDecimal, nil
	case "enumeration":
		return TypeEnum, nil
	case "":
		return 0, fmt.Errorf("missing type name (line %d)", ctx.Line)
	}
	// uuid and nl_ts get dedicated validation even when the schema text
	// declares them as "typedef ... { type string; }", as the published
	// Stampede schema does.
	switch name {
	case "uuid":
		return TypeUUID, nil
	case "nl_ts":
		return TypeTimestamp, nil
	}
	if t, ok := r.typedefs[name]; ok {
		return t, nil
	}
	return 0, fmt.Errorf("unknown type %q (line %d)", name, ctx.Line)
}

// CheckValue validates a string value against the leaf's type. It is the
// pyang-equivalent per-attribute check.
func (l *Leaf) CheckValue(v string) error {
	switch l.Type {
	case TypeString:
		return nil
	case TypeInt32:
		if _, err := strconv.ParseInt(v, 10, 32); err != nil {
			return fmt.Errorf("%q is not an int32: %v", v, err)
		}
	case TypeUint32:
		if _, err := strconv.ParseUint(v, 10, 32); err != nil {
			return fmt.Errorf("%q is not a uint32: %v", v, err)
		}
	case TypeInt64:
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			return fmt.Errorf("%q is not an int64: %v", v, err)
		}
	case TypeDecimal:
		// ParseFloat reads "NaN" and "Inf"; a decimal64 has no such value.
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("%q is not a decimal64: %v", v, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%q is not a decimal64: not a finite number", v)
		}
	case TypeUUID:
		if err := checkUUID(v); err != nil {
			return err
		}
	case TypeTimestamp:
		if err := checkTimestamp(v); err != nil {
			return err
		}
	case TypeEnum:
		for _, e := range l.EnumValues {
			if v == e {
				return nil
			}
		}
		return fmt.Errorf("%q is not one of %s", v, strings.Join(l.EnumValues, "|"))
	}
	return nil
}

func checkUUID(v string) error {
	if len(v) != 36 || v[8] != '-' || v[13] != '-' || v[18] != '-' || v[23] != '-' {
		return fmt.Errorf("%q is not a uuid", v)
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if i == 8 || i == 13 || i == 18 || i == 23 {
			continue
		}
		isHex := (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
		if !isHex {
			return fmt.Errorf("%q is not a uuid (bad hex at %d)", v, i)
		}
	}
	return nil
}

// checkTimestamp accepts exactly what bp.ParseTime reads as an instant the
// archive can store (bp.Representable), so a timestamp the schema passes is
// one the archive can fold: an epoch value outside years 1–9999 (or NaN)
// parses as a float but is no nl_ts, and the year 1600 is no storable one.
func checkTimestamp(v string) error {
	t, err := bp.ParseTime(v)
	if err != nil {
		return fmt.Errorf("%q is not an nl_ts timestamp", v)
	}
	if !bp.Representable(t) {
		return fmt.Errorf("%q is outside the representable range (years 1678 to 2262)", v)
	}
	return nil
}
