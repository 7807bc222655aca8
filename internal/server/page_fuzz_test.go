package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
)

// pageRequest runs pageParams over a GET carrying the given page_size
// and page_token query values (each omitted when empty).
func pageRequest(size, token string) (*httptest.ResponseRecorder, int64, int, bool) {
	q := url.Values{}
	if size != "" {
		q.Set("page_size", size)
	}
	if token != "" {
		q.Set("page_token", token)
	}
	r := httptest.NewRequest(http.MethodGet, "/v1/datasets?"+q.Encode(), nil)
	w := httptest.NewRecorder()
	offset, n, ok := pageParams(w, r)
	return w, offset, n, ok
}

// FuzzPageParams drives pageParams and pageSlice, the pagination of
// every list endpoint, with fuzzed page_size and page_token strings and
// listing lengths. Nothing may panic; a rejection must be a 400 with
// bad_request or invalid_page_token; an accepted page must be a window
// of the listing no longer than the page size, whose next token is
// offset+len(page) or empty exactly when the listing is exhausted; and
// following the tokens from the start must visit every item once, in
// order.
func FuzzPageParams(f *testing.F) {
	for _, seed := range []struct {
		size, token string
		n           uint16
	}{
		{"", "", 0},
		{"", "", 250},
		{"10", "", 25},
		{"3", "6", 10},
		{"1", "9", 10},
		{"5000", "", 1500},
		{"0", "", 5},
		{"-1", "", 5},
		{"abc", "", 5},
		{"", "x", 5},
		{"", "-4", 5},
		{"", "99999999999999999999", 4},
		{"7", "9223372036854775807", 10},
		{"2", "+3", 8},
	} {
		f.Add(seed.size, seed.token, seed.n)
	}
	f.Fuzz(func(t *testing.T, size, token string, n uint16) {
		items := make([]int, int(n)%1200)
		for i := range items {
			items[i] = i
		}
		w, offset, pageSize, ok := pageRequest(size, token)
		if !ok {
			var body errorBody
			if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &body) != nil ||
				(body.Code != CodeBadRequest && body.Code != CodeInvalidPageToken) {
				t.Fatalf("size %q token %q: rejected with %d %s", size, token, w.Code, w.Body)
			}
			return
		}
		if pageSize < 1 || pageSize > maxPageSize || offset < 0 {
			t.Fatalf("size %q token %q: accepted offset %d size %d", size, token, offset, pageSize)
		}
		checkPage(t, items, offset, pageSize)

		// Walk the whole listing at the accepted page size.
		seen := 0
		next := ""
		for {
			_, off, sz, ok := pageRequest(strconv.Itoa(pageSize), next)
			if !ok || sz != pageSize || off != int64(seen) {
				t.Fatalf("token %q: accepted=%v offset %d size %d, want offset %d size %d", next, ok, off, sz, seen, pageSize)
			}
			page, tok := checkPage(t, items, off, sz)
			for _, it := range page {
				if it != seen {
					t.Fatalf("walk visited item %d at position %d", it, seen)
				}
				seen++
			}
			if tok == "" {
				break
			}
			next = tok
		}
		if seen != len(items) {
			t.Fatalf("walk visited %d of %d items", seen, len(items))
		}
	})
}

// checkPage windows items and checks the page and next token against
// the listing.
func checkPage(t *testing.T, items []int, offset int64, size int) ([]int, string) {
	t.Helper()
	page, next := pageSlice(items, offset, size)
	if page == nil || len(page) > size {
		t.Fatalf("offset %d size %d: page of %d items (nil=%v)", offset, size, len(page), page == nil)
	}
	if len(page) > 0 && (offset >= int64(len(items)) || page[0] != items[offset] ||
		offset+int64(len(page)) > int64(len(items))) {
		t.Fatalf("offset %d size %d: page %v outside the %d-item listing", offset, size, page, len(items))
	}
	end := offset + int64(len(page))
	switch {
	case end < int64(len(items)):
		if len(page) != size || next != strconv.FormatInt(end, 10) {
			t.Fatalf("offset %d size %d: %d items, next %q; want %d and %d", offset, size, len(page), next, size, end)
		}
	case next != "":
		t.Fatalf("offset %d size %d: next %q at the end of the listing", offset, size, next)
	}
	return page, next
}
