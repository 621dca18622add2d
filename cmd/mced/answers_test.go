package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"mce/internal/cliqdb"
	"mce/internal/community"
	"mce/internal/gen"
	"mce/internal/mcealg"
)

// The response shapes the handlers once built and handed to json.Marshal.
// They are the reference the byte appenders must reproduce exactly.
type cliqueJSON struct {
	ID      uint32  `json:"id"`
	Size    int     `json:"size"`
	Members []int32 `json:"members"`
}

type communityJSON struct {
	Nodes         []int32 `json:"nodes"`
	Cliques       int     `json:"cliques"`
	MaxCliqueSize int     `json:"max_clique_size"`
}

func referenceCliques(db queryDB, ids []uint32, maxResults int) (list []cliqueJSON, truncated bool) {
	if len(ids) > maxResults {
		ids = ids[:maxResults]
		truncated = true
	}
	list = make([]cliqueJSON, len(ids))
	for i, id := range ids {
		list[i] = cliqueJSON{ID: id, Size: db.CliqueSize(id), Members: db.AppendClique(nil, id)}
	}
	return list, truncated
}

func marshalLine(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// generatedIndex compiles the maximal cliques of a small clustered graph.
func generatedIndex(t *testing.T) *cliqdb.DB {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gen.cliqdb")
	if _, err := cliqdb.Build(mcealg.ReferenceCollect(gen.HolmeKim(400, 5, 0.7, 11)), path); err != nil {
		t.Fatal(err)
	}
	db, err := cliqdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestAnswersMatchEncodingJSON pins every query body byte for byte to what
// json.Marshal gives the reference shapes: every vertex, vertices past the
// ID space, empty answers, truncation, and communities at every k.
func TestAnswersMatchEncodingJSON(t *testing.T) {
	db := generatedIndex(t)
	n := int(db.NumVertices())
	omega := db.CliqueSize(db.AppendTopK(nil, 1)[0])
	for _, maxResults := range []int{1000, 3} {
		s := newServer(db, serverConfig{maxResults: maxResults})
		check := func(h func(context.Context, queryDB, *http.Request) result, url string, want any) {
			t.Helper()
			res := h(context.Background(), db, httptest.NewRequest(http.MethodGet, url, nil))
			if res.status != http.StatusOK {
				t.Fatalf("max-results %d, %s: status %d: %s", maxResults, url, res.status, res.body)
			}
			if w := marshalLine(t, want); !bytes.Equal(res.body, w) {
				t.Fatalf("max-results %d, %s:\ngot  %s\nwant %s", maxResults, url, res.body, w)
			}
		}

		for v := 0; v < n+3; v++ {
			var ids []uint32
			if v < n {
				ids = db.AppendCliquesOf(nil, int32(v))
			}
			list, truncated := referenceCliques(db, ids, maxResults)
			check(s.cliquesOf, fmt.Sprintf("/v1/cliques-of?v=%d", v), map[string]any{
				"vertex": int32(v), "total": len(ids), "truncated": truncated, "cliques": list,
			})
			for _, u := range []int{v, v + 1, (v * 37) % n, n + 1} {
				var ids []uint32
				if u < n && v < n {
					ids = db.AppendCommonCliques(nil, int32(u), int32(v))
				}
				list, truncated := referenceCliques(db, ids, maxResults)
				check(s.commonCliques, fmt.Sprintf("/v1/common-cliques?u=%d&v=%d", u, v), map[string]any{
					"u": int32(u), "v": int32(v), "total": len(ids), "truncated": truncated, "cliques": list,
				})
			}
		}
		for _, k := range []int{1, 2, 3, 50, db.NumCliques(), db.NumCliques() + 5} {
			want, truncated := k, false
			if want > maxResults {
				want, truncated = maxResults, true
			}
			ids := db.AppendTopK(nil, want)
			list, _ := referenceCliques(db, ids, maxResults)
			check(s.topK, fmt.Sprintf("/v1/top-k?k=%d", k), map[string]any{
				"k": want, "total": len(ids), "truncated": truncated, "cliques": list,
			})
		}
		for k := 2; k <= omega+1; k++ {
			comms, err := community.Detect(db.Cliques(), k)
			if err != nil {
				t.Fatal(err)
			}
			truncated := false
			if len(comms) > maxResults {
				comms, truncated = comms[:maxResults], true
			}
			list := make([]communityJSON, len(comms))
			for i, c := range comms {
				list[i] = communityJSON{Nodes: c.Nodes, Cliques: c.Cliques, MaxCliqueSize: c.MaxCliqueSize}
			}
			check(s.communities, fmt.Sprintf("/v1/communities?k=%d", k), map[string]any{
				"k": k, "total": len(list), "truncated": truncated, "communities": list,
			})
		}
	}
}

// TestCommunitiesRepeatable sends the same communities request twice to a
// daemon without a result cache: both must compute, and both must answer
// the same bytes.
func TestCommunitiesRepeatable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.cliqdb")
	if _, err := cliqdb.Build(mcealg.ReferenceCollect(gen.HolmeKim(3000, 6, 0.7, 5)), path); err != nil {
		t.Fatal(err)
	}
	base, _, stop := startDaemon(t, []string{"-db", path, "-listen", "127.0.0.1:0", "-cache", "0"})
	defer stop()
	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s (%v)", url, resp.StatusCode, body, err)
		}
		return body
	}
	for k := 3; k <= 5; k++ {
		url := fmt.Sprintf("%s/v1/communities?k=%d", base, k)
		if first, second := get(url), get(url); !bytes.Equal(first, second) {
			t.Fatalf("k=%d: two identical requests answered differently (%d and %d bytes)", k, len(first), len(second))
		}
	}
}
