package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"zbp/internal/rcache"
)

// Headline is the narrow decode behind every sweep row and simulate
// reply: it reads only counters."sim.cycles" and the five headline
// gauges of a canonical stats payload, where Summarize builds the whole
// snapshot's maps to read the same six numbers. json.Unmarshal still
// checks the whole payload, so an undecodable entry fails with
// Summarize's error, and whenever Summarize succeeds Headline returns
// its summary (FuzzHeadline holds it to that).
func Headline(cell rcache.CellSpec, stats []byte) (CellSummary, error) {
	var h struct {
		Counters headlineCounters `json:"counters"`
		Gauges   headlineGauges   `json:"gauges"`
	}
	if err := json.Unmarshal(stats, &h); err != nil {
		return CellSummary{}, fmt.Errorf("cell %v: undecodable stats payload: %w", cell, err)
	}
	g := h.Gauges
	return CellSummary{
		Instructions: int64(g.instructions),
		Branches:     int64(g.branches),
		Cycles:       h.Counters.cycles,
		MPKI:         g.mpki,
		IPC:          g.ipc,
		Accuracy:     g.accuracy,
	}, nil
}

// headlineCounters and headlineGauges pick their members out of the
// counters and gauges objects the way metrics.Snapshot's
// map[string]T fields take them in, which struct fields would not: a
// key matches only byte for byte after unescaping (a struct field also
// matches it case-insensitively), a null value stores zero (a struct
// field keeps an earlier duplicate's value), and a null object clears
// what an earlier duplicate of the object set.
type headlineCounters struct{ cycles int64 }

type headlineGauges struct{ instructions, branches, mpki, ipc, accuracy float64 }

func (c *headlineCounters) UnmarshalJSON(b []byte) error {
	if bytes.Equal(b, nullJSON) {
		*c = headlineCounters{}
		return nil
	}
	m, err := openObject(b)
	if err != nil {
		return err
	}
	for key, val, ok := m.next(); ok; key, val, ok = m.next() {
		if string(memberName(key)) == "sim.cycles" {
			if c.cycles, err = jsonInt(val); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *headlineGauges) UnmarshalJSON(b []byte) error {
	if bytes.Equal(b, nullJSON) {
		*g = headlineGauges{}
		return nil
	}
	m, err := openObject(b)
	if err != nil {
		return err
	}
	for key, val, ok := m.next(); ok; key, val, ok = m.next() {
		var dst *float64
		switch string(memberName(key)) {
		case "sim.instructions":
			dst = &g.instructions
		case "sim.branches":
			dst = &g.branches
		case "sim.mpki":
			dst = &g.mpki
		case "sim.ipc":
			dst = &g.ipc
		case "sim.accuracy":
			dst = &g.accuracy
		default:
			continue
		}
		if *dst, err = jsonFloat(val); err != nil {
			return err
		}
	}
	return nil
}

var nullJSON = []byte("null")

// jsonInt and jsonFloat decode one member value, which json.Unmarshal
// has checked, as the map decode does: null is zero, a number parses as
// Go's decoder parses it, and any other JSON value fails to parse, the
// type error the map decode reports.
func jsonInt(v []byte) (int64, error) {
	if bytes.Equal(v, nullJSON) {
		return 0, nil
	}
	return strconv.ParseInt(string(v), 10, 64)
}

func jsonFloat(v []byte) (float64, error) {
	if bytes.Equal(v, nullJSON) {
		return 0, nil
	}
	return strconv.ParseFloat(string(v), 64)
}

// memberName returns a member's key, quotes stripped and unescaped;
// a key with no escape is returned in place, without a copy.
func memberName(quoted []byte) []byte {
	inner := quoted[1 : len(quoted)-1]
	if bytes.IndexByte(inner, '\\') < 0 {
		return inner
	}
	var s string
	if json.Unmarshal(quoted, &s) != nil {
		return nil
	}
	return []byte(s)
}

// objectMembers walks the members of one JSON object that
// json.Unmarshal has already validated. On malformed input it stops
// early rather than panic.
type objectMembers struct {
	b []byte
	i int
}

func openObject(b []byte) (objectMembers, error) {
	m := objectMembers{b: b}
	m.space()
	if m.i >= len(b) || b[m.i] != '{' {
		return m, errors.New("stats counters and gauges must be JSON objects")
	}
	m.i++
	return m, nil
}

// next returns the next member's quoted key and raw value.
func (m *objectMembers) next() (key, val []byte, ok bool) {
	m.space()
	if m.i < len(m.b) && m.b[m.i] == ',' {
		m.i++
		m.space()
	}
	if m.i >= len(m.b) || m.b[m.i] != '"' {
		return nil, nil, false
	}
	ks := m.i
	m.skipString()
	if m.i-ks < 2 || m.b[m.i-1] != '"' {
		return nil, nil, false
	}
	key = m.b[ks:m.i]
	m.space()
	if m.i >= len(m.b) || m.b[m.i] != ':' {
		return nil, nil, false
	}
	m.i++
	m.space()
	vs := m.i
	m.skipValue()
	return key, m.b[vs:m.i], true
}

func (m *objectMembers) space() {
	for m.i < len(m.b) {
		switch m.b[m.i] {
		case ' ', '\t', '\n', '\r':
			m.i++
		default:
			return
		}
	}
}

// skipString advances past the string that starts at m.i.
func (m *objectMembers) skipString() {
	for m.i++; m.i < len(m.b); {
		c := m.b[m.i]
		if c == '\\' {
			m.i += 2
			continue
		}
		m.i++
		if c == '"' {
			break
		}
	}
	m.i = min(m.i, len(m.b))
}

// skipValue advances past the value that starts at m.i.
func (m *objectMembers) skipValue() {
	for depth := 0; m.i < len(m.b); {
		switch m.b[m.i] {
		case '"':
			m.skipString()
		case '{', '[':
			depth++
			m.i++
			continue
		case '}', ']':
			if depth == 0 {
				return // a scalar ran up to the end of its object
			}
			depth--
			m.i++
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return
			}
			m.i++
			continue
		default:
			m.i++
			continue
		}
		if depth == 0 {
			return
		}
	}
}
