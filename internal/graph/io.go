package graph

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"strings"
)

// Dataset serialization uses the conventional gSpan text format:
//
//	t # <graph id>
//	v <node index> <label>
//	e <u> <v> [edge label]
//
// which is what the chemical benchmark datasets the paper evaluates on ship
// in (the optional edge label carries bond types). Gob support enables the
// "disk-resident" DF-index component.

// WriteAll writes the graphs in gSpan text format.
func WriteAll(w io.Writer, graphs []*Graph) error {
	bw := bufio.NewWriter(w)
	for _, g := range graphs {
		if _, err := fmt.Fprintf(bw, "t # %d\n", g.ID); err != nil {
			return err
		}
		for i := range g.labels {
			if _, err := fmt.Fprintf(bw, "v %d %s\n", i, g.Label(i)); err != nil {
				return err
			}
		}
		for i, e := range g.edges {
			if l := g.EdgeLabelAt(i); l != "" {
				if _, err := fmt.Fprintf(bw, "e %d %d %s\n", e.U, e.V, l); err != nil {
					return err
				}
			} else if _, err := fmt.Fprintf(bw, "e %d %d\n", e.U, e.V); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadAll parses graphs in gSpan text format. An optional trailing label on
// "e" lines becomes the edge label.
func ReadAll(r io.Reader) ([]*Graph, error) {
	var graphs []*Graph
	var cur *Graph
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "t":
			id := len(graphs)
			if len(fields) >= 3 && fields[1] == "#" {
				if _, err := fmt.Sscanf(fields[2], "%d", &id); err != nil {
					return nil, fmt.Errorf("graph: line %d: bad graph id %q", lineNo, fields[2])
				}
			}
			cur = New(id)
			graphs = append(graphs, cur)
		case "v":
			if cur == nil || len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: malformed vertex line", lineNo)
			}
			cur.AddNode(fields[2])
		case "e":
			if cur == nil || len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: malformed edge line", lineNo)
			}
			var u, v int
			if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &u, &v); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge endpoints", lineNo)
			}
			label := ""
			if len(fields) >= 4 {
				label = fields[3]
			}
			if err := cur.AddLabeledEdge(u, v, label); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return graphs, nil
}

// gobGraph is the wire representation for gob encoding. EdgeLabels is empty
// for an unlabeled graph; a payload carrying an explicit "" per edge decodes
// to the same label-free graph.
type gobGraph struct {
	ID         int
	Labels     []string
	Edges      []Edge
	EdgeLabels []string
}

// GobEncode implements gob.GobEncoder.
func (g *Graph) GobEncode() ([]byte, error) {
	labels := make([]string, len(g.labels))
	for i := range labels {
		labels[i] = g.Label(i)
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(gobGraph{
		ID: g.ID, Labels: labels, Edges: g.edges, EdgeLabels: g.edgeLabels,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (g *Graph) GobDecode(data []byte) error {
	var wire gobGraph
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return err
	}
	*g = Graph{ID: wire.ID}
	for _, l := range wire.Labels {
		g.AddNode(l)
	}
	for i, e := range wire.Edges {
		label := ""
		if i < len(wire.EdgeLabels) {
			label = wire.EdgeLabels[i]
		}
		if err := g.AddLabeledEdge(e.U, e.V, label); err != nil {
			return fmt.Errorf("graph: corrupt gob payload: %v", err)
		}
	}
	return nil
}
