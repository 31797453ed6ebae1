"""Text-analysis operators over the documents/pages table.

Training-data-pipeline operators (first-class per the build brief):
token counting, quality scoring, language-ID heuristic, document
fingerprinting.  All vectorized (pyarrow.compute / numpy) and run as
Ray tasks; the stages with setup (marker-word lists, hash powers) are
small callable classes, built per batch by the task function.

Oracle mirrors: token/quality/langid are expressed with the exact same
integer arithmetic in SQL (see __ray_entry__.oracle_sql); the rolling
fingerprint is not SQL-expressible and gets a rows-only check.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import shuffle
from .shuffle import aggregate, collect, partitioned, run_pairs, runs
from .sources import read_table

# language-ID marker words, checked as substrings " w " over " "||text||" ".
# Deterministic heuristic, not a real langid model: per-language score =
# count of marker-word occurrences; argmax with fixed tie order.
LANG_MARKERS = {
    "en": ["the", "a", "key", "fast"],
    "de": ["merge", "window", "table", "slow"],
    "fr": ["join", "filter", "value", "line"],
    "zh": ["spark", "vector", "batch", "hash"],
}
LANG_ORDER = ["en", "de", "fr", "zh"]

FP_MOD = 1000000007
FP_BASE = 131


def token_count(batch: pa.Table) -> pa.Table:
    """n_tokens = number of single-space-separated tokens.

    Matches SQL ``length(text) - length(replace(text,' ','')) + 1`` so the
    oracle needs no regex (documents.text is single-space tokenized).
    """
    text = batch["text"]
    n_spaces = pc.subtract(pc.utf8_length(text),
                           pc.utf8_length(pc.replace_substring(text, " ", "")))
    n_tok = pc.add(n_spaces, 1)
    return pa.table({"doc_id": batch["doc_id"],
                     "n_tokens": pc.cast(n_tok, pa.int64())})


def quality_score(batch: pa.Table) -> pa.Table:
    """Quality features: n_chars, n_tokens, mean token length (milli-units,
    integer to keep the oracle hash exact), uniq-char count.

    The reference has no text ops; this is the training-data extension
    (brief: 'quality scoring (length/punct/stopword ratios)')."""
    text = batch["text"]
    n_chars = pc.utf8_length(text)
    n_spaces = pc.subtract(n_chars,
                           pc.utf8_length(pc.replace_substring(text, " ", "")))
    n_tok = pc.add(n_spaces, 1)
    # mean token length in 1/1000 chars, exact integer arithmetic:
    # (n_chars - n_spaces) * 1000 // n_tok
    mean_tok_milli = pc.divide(
        pc.multiply(pc.subtract(n_chars, n_spaces), 1000), n_tok)
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_chars": pc.cast(n_chars, pa.int64()),
        "n_tokens": pc.cast(n_tok, pa.int64()),
        "mean_tok_len_milli": pc.cast(mean_tok_milli, pa.int64()),
    })


class LangId:
    """Marker-word counting language classifier.

    score(lang) = total occurrences of that language's marker words as
    whole tokens; predicted = argmax, ties broken by LANG_ORDER.
    Occurrences counted with count_substring over ' '||text||' ' so the
    SQL mirror ((length(x)-length(replace(x, m, '')))/length(m)) agrees.
    """

    def __init__(self):
        self.markers = {k: [f" {w} " for w in v]
                        for k, v in LANG_MARKERS.items()}

    def predict(self, text: pa.ChunkedArray):
        """(pred array-of-object, (n, |LANG_ORDER|) int score matrix)."""
        padded = pc.binary_join_element_wise(
            pa.scalar(" "), text, pa.scalar(" "), pa.scalar(""))
        scores = []
        for lang in LANG_ORDER:
            s = None
            for m in self.markers[lang]:
                # overlapping " a a " cases: count_substring is
                # non-overlapping; replace-based count matches SQL exactly
                cnt = pc.divide(
                    pc.subtract(pc.utf8_length(padded),
                                pc.utf8_length(
                                    pc.replace_substring(padded, m, ""))),
                    len(m))
                s = cnt if s is None else pc.add(s, cnt)
            scores.append(s.to_numpy(zero_copy_only=False))
        sc = np.stack(scores, axis=1)  # (n, 4) in LANG_ORDER
        best = sc.argmax(axis=1)       # first max wins = LANG_ORDER tie-break
        return np.asarray(LANG_ORDER, dtype=object)[best], sc

    def __call__(self, batch: pa.Table) -> pa.Table:
        pred, sc = self.predict(batch["text"])
        out = {"doc_id": batch["doc_id"],
               "pred_lang": pa.array(pred, pa.string())}
        for i, lang in enumerate(LANG_ORDER):
            out[f"score_{lang}"] = pa.array(sc[:, i], pa.int64())
        return pa.table(out)


def lang_confusion(ds):
    """(label, prediction) confusion counts — the classifier-QA sweep
    over the corpus.  Per-batch partials (one row per (label, pred)
    pair, never documents) -> one groupby Sum bounded by |langs|^2
    keys."""

    def cols(batch: pa.Table) -> pa.Table:
        pred, _ = LangId().predict(batch["text"])
        return pa.table({"lang": batch["lang"],
                         "pred_lang": pa.array(pred, pa.string()),
                         "n": pa.array(np.ones(len(batch), np.int64))})

    return aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["lang", "pred_lang"], {"n": ("n", "sum")},
        {"lang": pa.string(), "pred_lang": pa.string(), "n": pa.int64()})


def source_stats(ds):
    """Per-source page aggregates — the per-domain stats sweep of a
    web-text pipeline (the source is the URL path segment, the synthetic
    analog of the registrable domain).  Map-side partials (one row per
    source per batch) keep the shuffle bounded by the source key space,
    never the page count."""

    def cols(batch: pa.Table) -> pa.Table:
        src = pc.list_element(pc.split_pattern(batch["url"], "/"), 3)
        nch = pc.cast(pc.utf8_length(batch["text"]), pa.int64())
        ntok = pc.add(pc.cast(pc.count_substring(batch["text"], " "),
                              pa.int64()), 1)
        return pa.table({"src": src,
                         "c": pa.array(np.ones(len(batch), dtype=np.int64)),
                         "nch": nch, "ntok": ntok})

    return aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "src", {"n_pages": ("c", "sum"),
                "total_chars": ("nch", "sum"),
                "total_tokens": ("ntok", "sum")},
        {"src": pa.string(), "n_pages": pa.int64(), "total_chars": pa.int64(),
         "total_tokens": pa.int64()})


QUANTILES = (0.5, 0.9, 0.99)


def length_histogram(ds):
    """Sorted (lengths, counts) int64 arrays of the corpus's document
    lengths via the integer-histogram sketch: per-batch (length, count)
    partials -> groupby length -> the tiny histogram (bounded by
    DISTINCT lengths, never rows) folds on the driver.  Shared by
    ``length_quantiles`` / ``quality_filter`` (and mirrored by
    relational.length_percentile_rank's keyed variant).  Returns two
    empty arrays for an empty corpus."""

    def lengths(batch: pa.Table) -> pa.Table:
        return pa.table({"L": pc.utf8_length(batch["text"])})

    hist = aggregate(
        ds.map_batches(lengths, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "L", {"n": ("L", "count")},
        {"L": pa.int64(), "n": pa.int64()})
    t = collect(hist, pa.schema([("L", pa.int64()), ("n", pa.int64())]))
    L = t["L"].to_numpy()
    n = t["n"].to_numpy()
    order = np.argsort(L)
    return L[order], n[order]


def length_quantiles(ds):
    """Exact discrete quantiles (p50/p90/p99) of document length over
    the ``length_histogram`` sketch.  The q-th quantile is the
    ceil(q*n)-th smallest value — same double arithmetic as the SQL
    mirror, so the index is bit-identical."""
    import math

    import ray.data as rd

    L, n = length_histogram(ds)
    if len(n) == 0:  # empty corpus: no defined quantiles
        return rd.from_arrow(pa.table(
            {f"p{int(q * 100)}": pa.array([], pa.int64())
             for q in QUANTILES}))
    cum = np.cumsum(n)
    total = int(cum[-1])
    out = {}
    for q in QUANTILES:
        idx = math.ceil(q * total)  # 1-based rank, double math as in SQL
        out[f"p{int(q * 100)}"] = pa.array(
            [int(L[np.searchsorted(cum, idx)])], pa.int64())
    return rd.from_arrow(pa.table(out))


def doc_token_tf(batch: pa.Table) -> pa.Table:
    """Tokenize + pre-aggregate to (doc_id, token, tf) — one row per
    DISTINCT (doc, token) pair; the raw occurrence stream never leaves
    the task (it only existed as the join input before, inflating the
    shuffle by the in-document repetition factor)."""
    toks = pc.split_pattern(batch["text"], " ")
    n = pc.list_value_length(toks).to_numpy()
    flat = pa.table({
        "doc_id": pa.array(np.repeat(batch["doc_id"].to_numpy(), n)),
        "token": pc.list_flatten(toks),
    })
    g = flat.group_by(["doc_id", "token"]).aggregate([([], "count_all")])
    return pa.table({"doc_id": g["doc_id"], "token": g["token"],
                     "tf": pc.cast(g["count_all"], pa.int64())})


def unigram_surprisal(ds):
    """Per-document unigram surprisal score (milli-nats) — the
    language-model-filtering quality signal: rare-token-heavy documents
    score high.

    Shape: flat-map to PRE-AGGREGATED (doc_id, token, tf) rows — one row
    per distinct (doc, token) pair, the term frequency folded in-batch —
    -> global token counts (map-side partials over tf) -> hash join the
    pair rows to counts -> per-token integer surprisal
    floor(-1000*ln(count/total)) weighted by tf -> per-doc integer Sum.
    The pre-aggregation cuts the join/shuffle volume by the in-document
    repetition factor (web text repeats heavily); results are identical
    because the surprisal is integerized per TOKEN VALUE before the
    tf-weighted sum.  All-vectorized aggregates; exactly SQL-mirrorable
    (numpy and DuckDB share the platform libm, so ln() in the same
    expression order is bit-exact)."""

    tokens = ds.map_batches(doc_token_tf, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)

    # the counts aggregate is vocab-bounded — materialize it once and
    # derive the total token count from it (saves a full tokenize pass
    # vs a separate tokens.count(), and a second one when the join
    # consumes counts)
    counts = aggregate(
        tokens,
        "token", {"n": ("tf", "sum")},
        {"token": pa.string(), "n": pa.int64()}) \
        .materialize()
    total = 0
    for b in counts.iter_batches(batch_size=65536,
                                 batch_format="pyarrow"):
        total += int(np.sum(b["n"].to_numpy()))

    # hash join (token) — the open-vocabulary scale path; a bounded
    # vocab could broadcast instead.  Partition count grows with the
    # token volume and stays 1 for tiny inputs (see
    # relational.join_partitions_for for both bounds)
    from .relational import join_partitions_for

    num_partitions = join_partitions_for(total)
    j = tokens.join(counts, join_type="inner",
                    num_partitions=num_partitions, on=("token",))

    def surprise(batch: pa.Table) -> pa.Table:
        c = batch["n"].to_numpy().astype(np.float64)
        tf = batch["tf"].to_numpy()
        s = np.floor(-1000.0 * np.log(c / float(total))).astype(np.int64)
        return pa.table({"doc_id": batch["doc_id"],
                         "s": pa.array(s * tf),
                         "tf": pa.array(tf)})

    return aggregate(
        j.map_batches(surprise, batch_format="pyarrow",
                      zero_copy_batch=True),
        "doc_id", {"surprisal_milli": ("s", "sum"), "n_tokens": ("tf", "sum")},
        {"doc_id": pa.int64(), "surprisal_milli": pa.int64(),
         "n_tokens": pa.int64()})


def word_count_topk(ds, k: int = 20):
    """Global token frequencies, top-k by (count desc, token asc) — the
    canonical flat-map word count with map-side partial aggregation:
    one (token, count) row per distinct token per batch crosses the
    shuffle, then a vectorized Sum and a small sort."""

    def cols(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(batch["text"], " "))
        vc = toks.value_counts()
        return pa.table({
            "token": vc.field("values"),
            "c": pc.cast(vc.field("counts"), pa.int64()),
        })

    counts = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "token", {"n": ("c", "sum")},
        {"token": pa.string(), "n": pa.int64()})
    return counts.sort(["n", "token"], descending=[True, False]).limit(k)


CMS_W = 1024            # sketch cells per row
CMS_D = 4               # hash rows (estimate = min over rows)
CMS_A = (1103515245, 1299709, 15485863, 32452843)   # < 2^31: a*h < 2^62
CMS_B = (12345, 7919, 104729, 999331)


def cms_heavy(ds, k: int = 20, w: int = CMS_W):
    """Count-min-sketch heavy hitters — the streaming-frequency sketch
    of the sketch family (Bloom membership, HLL cardinality, CMS
    counts): a D x W integer sketch of the full token stream, read out
    at the exact global top-``k`` tokens so the oracle can pin both the
    exact count and the sketch estimate (CMS never underestimates).

    Scale shape: per-batch partials are (row, cell, cnt) with at most
    D x W rows per batch REGARDLESS of corpus size (value_counts the
    batch, hash unique tokens via the bounded per-worker memo, weighted
    bincount); the shuffle and the driver fold are sketch-bounded, like
    ``hll_registers``.  The exact top-k side reuses
    ``word_count_topk`` (map-side partial counts).  Output:
    (token, n_exact, n_cms), top-k order (count desc, token asc).

    The two passes over the token column are deliberate: the exact pass
    is the verification side a production pipeline replaces with a
    candidate heap next to the sketch."""
    import ray.data as rd

    from .dedup import MERSENNE, _hash_tokens

    def cols(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(batch["text"], " "))
        vc = toks.value_counts()
        uniq = vc.field("values").to_pylist()
        cnt = vc.field("counts").to_numpy().astype(np.int64)
        th = _hash_tokens(uniq)
        rs, cs, ns = [], [], []
        for r in range(CMS_D):
            cells = (CMS_A[r] * th + CMS_B[r]) % MERSENNE % w
            bc = np.zeros(w, dtype=np.int64)
            np.add.at(bc, cells, cnt)
            nz = np.flatnonzero(bc)
            rs.append(np.full(len(nz), r, dtype=np.int64))
            cs.append(nz.astype(np.int64))
            ns.append(bc[nz])
        return pa.table({
            "r": pa.array(np.concatenate(rs) if rs
                          else np.array([], dtype=np.int64)),
            "cell": pa.array(np.concatenate(cs) if cs
                             else np.array([], dtype=np.int64)),
            "cnt": pa.array(np.concatenate(ns) if ns
                            else np.array([], dtype=np.int64)),
        })

    sketch_rows = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["r", "cell"], {"cnt": ("cnt", "sum")},
        {"r": pa.int64(), "cell": pa.int64(), "cnt": pa.int64()})

    # driver fold: the aggregate output is <= D x W rows by construction
    cms = np.zeros((CMS_D, w), dtype=np.int64)
    for b in sketch_rows.iter_batches(batch_size=65536,
                                      batch_format="pyarrow"):
        cms[b["r"].to_numpy(), b["cell"].to_numpy()] = b["cnt"].to_numpy()

    top = collect(word_count_topk(ds, k),
                  pa.schema([("token", pa.string()), ("n", pa.int64())]))
    toks = top["token"].to_pylist()
    exact = top["n"].to_pylist()
    if not toks:
        return rd.from_arrow(pa.table({
            "token": pa.array([], pa.string()),
            "n_exact": pa.array([], pa.int64()),
            "n_cms": pa.array([], pa.int64())}))
    th = _hash_tokens(toks)
    ests = np.stack([
        cms[r, (CMS_A[r] * th + CMS_B[r]) % MERSENNE % w]
        for r in range(CMS_D)]).min(axis=0)
    return rd.from_arrow(pa.table({
        "token": pa.array(toks, pa.string()),
        "n_exact": pa.array(np.asarray(exact, dtype=np.int64)),
        "n_cms": pa.array(ests.astype(np.int64))}))


class Fingerprint:
    """Polynomial rolling-hash document fingerprint.
    fp = sum(byte[i] * BASE^i) mod FP_MOD over the utf-8 bytes, computed
    blockwise-vectorized.  SQL mirror: recursive powers CTE +
    ord(substr(..)) per position (exact for ASCII corpora)."""

    def __init__(self):
        # precompute powers for a max chunk; extended lazily
        self.pows = np.ones(4096, dtype=np.int64)
        for i in range(1, 4096):
            self.pows[i] = self.pows[i - 1] * FP_BASE % FP_MOD

    def _fp_one(self, b: bytes) -> int:
        n = len(b)
        while n > len(self.pows):
            ext = np.empty(len(self.pows) * 2, dtype=np.int64)
            ext[:len(self.pows)] = self.pows
            for i in range(len(self.pows), len(ext)):
                ext[i] = ext[i - 1] * FP_BASE % FP_MOD
            self.pows = ext
        arr = np.frombuffer(b, dtype=np.uint8).astype(np.int64)
        return int((arr * self.pows[:n] % FP_MOD).sum() % FP_MOD)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        fps = np.fromiter((self._fp_one(t.encode()) for t in texts),
                          dtype=np.int64, count=len(texts))
        return pa.table({"doc_id": batch["doc_id"],
                         "fingerprint": pa.array(fps)})


# BPE-ish tokenizer pattern classes (brief: "token counting (whitespace
# + a BPE-ish regex)").  ASCII-only classes so pyarrow's RE2 and
# DuckDB's RE2 agree byte-for-byte.
RE_WORD = "[A-Za-z]+"
RE_NUM = "[0-9]+"
RE_PUNCT = "[^A-Za-z0-9 ]"


def regex_tokens(batch: pa.Table) -> pa.Table:
    """Regex token counting.  Counts word / number / punctuation tokens
    with RE2 via pyarrow count_substring_regex — mirrored in SQL by
    length(regexp_extract_all(...)), both RE2 dialects."""
    text = batch["text"]
    out = {"doc_id": batch["doc_id"]}
    total = None
    for name, pat in (("n_word", RE_WORD), ("n_num", RE_NUM),
                      ("n_punct", RE_PUNCT)):
        c = pc.cast(pc.count_substring_regex(text, pat), pa.int64())
        out[name] = c
        total = c if total is None else pc.add(total, c)
    out["n_bpe_tokens"] = total
    return pa.table(out)


def ngram_topk(ds, n: int = 2, k: int = 20):
    """Corpus-wide top-k token n-grams — the n-gram LM count-table
    build of a training-data pipeline.

    Per-batch kernel: flatten the token lists once, form n-gram starts
    by index shifting (a start is valid iff its n-th token is in the
    same document), join with spaces, value_counts — ONE (ngram, count)
    row per distinct n-gram per batch crosses the shuffle, then a
    vectorized Sum and a k-row sort.  The shuffle is bounded by the
    n-gram vocabulary per batch, never the token stream."""
    import pandas as pd

    if n < 2:
        raise ValueError("use word_count_topk for unigrams")

    def cols(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        lens = pc.list_value_length(toks).to_numpy()
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        m = len(flat) - (n - 1)
        empty = pa.table({"ngram": pa.array([], pa.string()),
                          "c": pa.array([], pa.int64())})
        if m <= 0:
            return empty
        did = np.repeat(np.arange(len(lens)), lens)
        ok = did[:m] == did[n - 1:]
        if not ok.any():
            return empty
        s = pd.Series(flat[:m][ok], dtype=object)
        for j in range(1, n):
            s = s + " " + pd.Series(flat[j:j + m][ok], dtype=object)
        vc = s.value_counts()
        return pa.table({
            "ngram": pa.array(vc.index.to_numpy(), pa.string()),
            "c": pa.array(vc.to_numpy().astype(np.int64)),
        })

    # 16384-doc batches: the kernel materializes the token stream as
    # Python objects, so whole 128 MB blocks would be memory-heavy; 16x
    # the default still folds most in-batch n-gram repetition
    counts = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=16384),
        "ngram", {"n": ("c", "sum")},
        {"ngram": pa.string(), "n": pa.int64()})
    return counts.sort(["n", "ngram"], descending=[True, False]).limit(k)


def tfidf_topk(ds, n_docs: int, k: int = 3,
               pair_rows_hint: int | None = None):
    """Per-document top-k terms by tf-idf — keyword extraction over the
    corpus (milli-nat integer idf keeps the oracle hash exact).

    Shape: (doc, token, tf) distinct pairs (``doc_token_tf`` folds the
    occurrence stream in-batch) -> vocab-bounded document-frequency
    aggregate (materialized once — small side) -> hash join pairs⋈df on
    token (open-vocab scale path) -> integer score tf *
    floor(1000*ln(N/df)) -> per-doc top-k through
    ``shuffle.partitioned`` (one vectorized rank kernel per partition,
    never one call per document).  ``n_docs`` comes from parquet
    footer metadata — no extra pass over the corpus."""

    pairs = ds.map_batches(doc_token_tf, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)

    dfs = aggregate(
        pairs,
        "token", {"df": ("token", "count")},
        {"token": pa.string(), "df": pa.int64()}) \
        .materialize()

    # join fan-out scales with the pair volume, floor 1 for tiny inputs
    # (see relational.join_partitions_for)
    from .relational import join_partitions_for

    hint = pair_rows_hint if pair_rows_hint is not None else n_docs * 64
    num_partitions = join_partitions_for(hint)
    j = pairs.join(dfs, join_type="inner",
                   num_partitions=num_partitions, on=("token",))

    def score(batch: pa.Table) -> pa.Table:
        dfv = batch["df"].to_numpy().astype(np.float64)
        idf = np.floor(1000.0 * np.log(float(n_docs) / dfv)) \
            .astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "token": batch["token"],
            "score_milli": pa.array(batch["tf"].to_numpy() * idf),
        })

    scored = j.map_batches(score, batch_format="pyarrow",
                           zero_copy_batch=True)

    def topk_part(g: pa.Table) -> pa.Table:
        # one lexsort + run-start rank for EVERY doc in the partition
        # (the top_orders_per_customer kernel shape); string tie-break
        # is bytewise in both Arrow and DuckDB
        g = g.sort_by([("doc_id", "ascending"), ("score_milli", "descending"),
                       ("token", "ascending")])
        d = g["doc_id"].to_numpy()
        starts, sizes = runs(d)
        rnk = np.arange(len(g)) - np.repeat(starts, sizes) + 1
        return g.append_column("rk", pa.array(rnk.astype(np.int64))) \
            .filter(rnk <= k)

    return partitioned(scored, "doc_id", topk_part,
                       {"doc_id": pa.int64(), "token": pa.string(),
                        "score_milli": pa.int64(), "rk": pa.int64()},
                       rows_hint=hint)


def chunk_docs(ds, chunk_tokens: int = 32, overlap: int = 8):
    """Context-window chunking: each document's token stream split into
    chunks of ``chunk_tokens`` with ``overlap`` tokens carried between
    consecutive chunks (stride = chunk_tokens - overlap; starts advance
    while < n_tokens, so the tail chunk may be short) — the
    chunk-for-training step of an LLM data pipeline.

    Fully batch-local (no shuffle): chunk starts/ends are derived with
    integer vectors from the token-list offsets; only the final chunk
    join runs per OUTPUT row (C-speed ``str.join``, same per-row cost
    class as the fingerprint kernel)."""
    if not 0 <= overlap < chunk_tokens:
        raise ValueError("need 0 <= overlap < chunk_tokens")
    step = chunk_tokens - overlap

    def kernel(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        lens = pc.list_value_length(toks).to_numpy()
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        doc_off = np.concatenate([[0], np.cumsum(lens)[:-1]])
        nch = -(-lens // step)           # ceil: starts 0, step, … < n
        did = batch["doc_id"].to_numpy()
        out_doc = np.repeat(did, nch)
        coff = np.concatenate([[0], np.cumsum(nch)[:-1]])
        cidx = np.arange(int(nch.sum())) - np.repeat(coff, nch)
        s = cidx * step
        o = np.repeat(doc_off, nch)
        e = np.minimum(s + chunk_tokens, np.repeat(lens, nch))
        texts = [" ".join(flat[a:b]) for a, b in zip(o + s, o + e)]
        return pa.table({
            "doc_id": pa.array(out_doc),
            "chunk_id": pa.array(cidx.astype(np.int64)),
            "n_chunk_tokens": pa.array((e - s).astype(np.int64)),
            "chunk_text": pa.array(texts, pa.string()),
        })

    return ds.map_batches(kernel, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=16384)


DECON_BENCH_MOD = 97      # doc_id % MOD == 0 -> benchmark ("eval") doc
DECON_NGRAM = 3


def doc_ngram_pairs(batch: pa.Table, n: int):
    """(doc_row_idx, ngram) DISTINCT word-``n``-gram pairs for a batch —
    the shared shingling kernel behind ``decontaminate`` and
    ``dup_spans``.  One vectorized pass: Arrow split + flatten, then a
    stride-shifted pandas string join (no per-row Python loop); the
    per-doc dedup is a single ``drop_duplicates``."""
    import pandas as pd

    toks = pc.split_pattern(batch["text"], " ")
    lens = pc.list_value_length(toks).to_numpy()
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    m = len(flat) - (n - 1)
    if m <= 0:
        return (np.array([], dtype=np.int64),
                pd.Series([], dtype=object))
    did = np.repeat(np.arange(len(lens)), lens)
    ok = did[:m] == did[n - 1:]
    s = pd.Series(flat[:m][ok], dtype=object)
    for j in range(1, n):
        s = s + " " + pd.Series(flat[j:j + m][ok], dtype=object)
    df = pd.DataFrame({"i": did[:m][ok], "g": s})
    df = df.drop_duplicates()
    return df["i"].to_numpy(), df["g"]


def decontaminate(ds, bench_ds=None, n: int = DECON_NGRAM,
                  bench_mod: int = DECON_BENCH_MOD):
    """Benchmark decontamination: per-document count of distinct token
    ``n``-grams shared with a benchmark/eval set — the overlap filter a
    training pipeline runs before training so eval data doesn't leak
    into the corpus (the GPT-3-style n-gram decontamination step).

    ``bench_ds`` defaults to the corpus rows with ``doc_id % bench_mod
    == 0`` (a deterministic self-derived eval set for tests; in
    production it is the real benchmark corpus).  Scale shape: the
    benchmark n-gram set is SMALL by construction (eval suites are MBs
    against a 100 TB corpus), so it is collected once, deduplicated,
    and broadcast via ``ray.put`` — membership is then a fully
    batch-local vectorized ``isin`` with NO shuffle over the corpus.
    Output: one row per document, ``n_overlap`` distinct shared
    n-grams, ``is_benchmark`` flag."""
    import pandas as pd
    import ray

    # the doc_id % bench_mod flag only describes the DEFAULT
    # self-derived split; with an external bench_ds the corpus rows are
    # all training docs and is_benchmark must be 0 for every row
    self_bench = bench_ds is None
    if self_bench:
        def pick_bench(batch: pa.Table) -> pa.Table:
            keep = batch["doc_id"].to_numpy() % bench_mod == 0
            return batch.filter(pa.array(keep))

        bench_ds = ds.map_batches(pick_bench, batch_format="pyarrow",
                                  zero_copy_batch=True)

    def doc_ngrams(batch: pa.Table):
        return doc_ngram_pairs(batch, n)

    def bench_cols(batch: pa.Table) -> pa.Table:
        _, g = doc_ngrams(batch)
        return pa.table({"g": pa.array(g.drop_duplicates(), pa.string())})

    # distinct benchmark n-grams: per-batch dedup partials -> one small
    # global distinct aggregate -> driver list (bench-set-bounded)
    bench_grams = aggregate(
        bench_ds.map_batches(bench_cols, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None),
        "g", {}, {"g": pa.string()})
    gset = pd.Index(collect(bench_grams, pa.schema([("g", pa.string())]))
                    ["g"].to_numpy(zero_copy_only=False), dtype=object)
    gref = ray.put(gset)

    def overlap(batch: pa.Table) -> pa.Table:
        grams = ray.get(gref)
        idx, g = doc_ngrams(batch)
        cnt = np.zeros(len(batch), dtype=np.int64)
        if len(idx):
            hit = g.isin(grams).to_numpy()
            np.add.at(cnt, idx[hit], 1)
        d = batch["doc_id"].to_numpy()
        bench_flag = ((d % bench_mod == 0).astype(np.int64)
                      if self_bench
                      else np.zeros(len(d), dtype=np.int64))
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_overlap": pa.array(cnt),
            "is_benchmark": pa.array(bench_flag),
        })

    return ds.map_batches(overlap, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=16384)


CHUNK_ID_BITS = 20   # chunk_id < 2^20 (doc len / stride bound); the
# packed winner key doc_id << 20 | chunk_id stays int64-safe to 2^43 ids


def chunk_dedup(ds, chunk_tokens: int = 32):
    """Chunk-level (paragraph-analog) corpus dedup — the CCNet-style
    boilerplate-removal step: split every document into non-overlapping
    ``chunk_tokens`` windows, keep each distinct chunk text only at its
    FIRST occurrence (lowest (doc_id, chunk_id)), and report per
    document how many of its chunks survive.

    Scale shape: only (md5(chunk), packed doc/chunk id) rows cross the
    shuffle — never chunk text; the winner per chunk hash is a
    vectorized ``Min`` aggregate (same reduce as ``exact_dedup``); the
    per-doc roll-up joins two partial aggregates through one
    ``groupby(doc_id)`` Sum.  Output: (doc_id, n_chunks, n_kept)."""
    import hashlib

    chunks = chunk_docs(ds, chunk_tokens=chunk_tokens, overlap=0)

    def keyed(batch: pa.Table) -> pa.Table:
        h = [hashlib.md5(t.encode()).hexdigest()
             for t in batch["chunk_text"].to_pylist()]
        d = batch["doc_id"].to_numpy()
        c = batch["chunk_id"].to_numpy()
        # cheap vectorized guard: silent int64 bit-collision above
        # these bounds would corrupt winner selection
        if len(c) and (int(c.max()) >= (1 << CHUNK_ID_BITS)
                       or int(d.max()) >= (1 << (63 - CHUNK_ID_BITS))):
            raise ValueError(
                "chunk_dedup packed-key overflow: need chunk_id < 2^20 "
                "and doc_id < 2^43")
        packed = (d << CHUNK_ID_BITS) | c
        return pa.table({"h": pa.array(h, pa.string()),
                         "packed": pa.array(packed)})

    winners = aggregate(
        chunks.map_batches(keyed, batch_format="pyarrow",
                           zero_copy_batch=True),
        "h", {"w": ("packed", "min")},
        {"h": pa.string(), "w": pa.int64()})

    def flagged(d: np.ndarray, kept: int) -> pa.Table:
        # one row per chunk: counted in n_chunks, or in n_kept
        return pa.table({"doc_id": pa.array(d),
                         "n_chunks": pa.array(np.full(len(d), 1 - kept)),
                         "n_kept": pa.array(np.full(len(d), kept))})

    kept = winners.map_batches(
        lambda b: flagged(b["w"].to_numpy() >> CHUNK_ID_BITS, 1),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    totals = chunks.map_batches(
        lambda b: flagged(b["doc_id"].to_numpy(), 0),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    return aggregate(
        totals.union(kept),
        "doc_id", {"n_chunks": ("n_chunks", "sum"),
         "n_kept": ("n_kept", "sum")},
        {"doc_id": pa.int64(), "n_chunks": pa.int64(), "n_kept": pa.int64()})


DUP_SPANS_NGRAM = 3
DUP_SPANS_GRAMS_PER_DOC = 192   # upper-bound distinct-gram estimate per doc
# used to size the gram shuffle when the caller only knows the doc count


def dup_spans(ds, n: int = DUP_SPANS_NGRAM, docs_hint: int | None = None):
    """Exact substring-span duplication signal (the RefinedWeb /
    Gopher "exact substring dedup" family): for every document, count
    its DISTINCT word ``n``-grams and how many of those also appear in
    at least one OTHER document.  Training pipelines threshold this to
    drop boilerplate-heavy pages or to mask duplicated spans.

    Scale shape: only DISTINCT (gram, doc_id) pairs leave the map side
    (per-doc dedup is batch-local in ``doc_ngram_pairs``); pairs are
    hash-partitioned by a vectorized 64-bit hash of the gram string, so
    every occurrence of a gram lands in one partition.  Partition-key
    collisions are harmless — the kernel sorts by the exact STRING and
    flags runs, so counts are exact (no probabilistic answer).  The
    kernel is ONE vectorized call per partition (sort + run detection +
    per-doc bincount), not per-gram pandas groups; per-doc partials
    then fold through ``shuffle.aggregate``.  One shuffle; gram text
    never reaches the driver.  At petabyte scale the
    carried key would switch to the 64-bit hash itself (documented
    collision odds) to shrink the exchange.

    Documents with fewer than ``n`` words produce no grams and are
    absent from the output (matching the SQL mirror).
    Output: (doc_id, n_grams, n_dup)."""
    import pandas as pd

    rows_hint = DUP_SPANS_GRAMS_PER_DOC * (
        docs_hint if docs_hint is not None else ds.count())

    def pairs(batch: pa.Table) -> pa.Table:
        idx, g = doc_ngram_pairs(batch, n)
        d = (batch["doc_id"].to_numpy()[idx]
             if len(idx) else np.array([], dtype=np.int64))
        # deterministic vectorized siphash of the gram string (pandas
        # fixed-key hash): the partition key
        h = pd.util.hash_array(g.to_numpy(dtype=object)).astype(
            np.int64) if len(g) else np.array([], dtype=np.int64)
        return pa.table({
            "g": pa.array(g, pa.string()),
            "doc_id": pa.array(d, pa.int64()),
            "gh": pa.array(h, pa.int64()),
        })

    keyed = ds.map_batches(pairs, batch_format="pyarrow",
                           zero_copy_batch=True)

    def span_part(g: pa.Table) -> pa.Table:
        # O(n) hash-table encode of the exact gram string (collisions
        # resolved by string equality inside the hash table) — an
        # O(n log n) string sort here was 5x the whole stage's
        # runtime on the 16x-dup stress corpus
        codes = pc.dictionary_encode(g["g"].combine_chunks()).indices \
            .to_numpy()
        cnt = np.bincount(codes)
        dup = cnt[codes] > 1
        d = g["doc_id"].to_numpy()
        u, inv = np.unique(d, return_inverse=True)
        n_grams = np.bincount(inv, minlength=len(u))
        n_dup = np.bincount(inv, weights=dup.astype(np.float64),
                            minlength=len(u))
        return pa.table({"doc_id": u,
                         "n_grams": n_grams.astype(np.int64),
                         "n_dup": n_dup.astype(np.int64)})

    per_part = partitioned(keyed, "gh", span_part,
                           {"doc_id": pa.int64(), "n_grams": pa.int64(),
                            "n_dup": pa.int64()},
                           rows_hint=rows_hint)

    # Final per-doc combine: partial volume is bounded by partitions x
    # docs (every doc contributes <= one row per partition), so under
    # the driver bound shuffle.aggregate folds it on the driver — Ray
    # 2.49's sort-based groupby cost 21 s on a 2.7 M-row partial table
    # this fold does in ~1 s.
    return shuffle.aggregate(
        per_part, "doc_id", {"n_grams": ("n_grams", "sum"),
                             "n_dup": ("n_dup", "sum")},
        {"doc_id": pa.int64(), "n_grams": pa.int64(),
         "n_dup": pa.int64()})


MIX_HMOD = 1_000_000_007    # (doc_id % MOD) * MULT + ADD stays < 2^63
MIX_HMULT = 2_654_435_761   # Knuth multiplicative constant
MIX_HADD = 1_013_904_223
MIX_TARGET_DOCS = 200
MIX_MAX_SOURCES = 100_000   # driver-dict + broadcast bound


def mix_sample(ds, k: int = MIX_TARGET_DOCS):
    """Temperature-balanced source mixing (the alpha=0.5 rebalance a
    training mix applies so head sources don't drown the tail): per
    source s with c_s docs, weight w_s = floor(sqrt(c_s)); target
    t_s = (k * w_s) // sum(w_s) docs; keep a document iff its integer
    hash modulo c_s falls below t_s.  Every step is integer (the only
    float is the IEEE sqrt, identical in numpy and the SQL mirror), so
    the kept set is deterministic and oracle-exact.

    Scale shape: per-batch np.unique partials -> one tiny
    ``groupby(source)`` Sum (shuffle bounded by DISTINCT sources per
    block, not rows); the driver folds only the per-source count table
    (source label sets are small by construction — they are corpus
    provenance labels, not free text); the keep rule broadcasts two
    small dicts and filters batch-locally with NO second shuffle.
    Output: the kept (doc_id, source) rows."""
    import pandas as pd
    import ray

    counts = aggregate(
        ds, "source", {"n": ("source", "count")},
        {"source": pa.string(), "n": pa.int64()})

    counts = collect(counts, pa.schema([("source", pa.string()),
                                        ("n", pa.int64())]),
                     MIX_MAX_SOURCES)
    if counts is None:
        # loud failure beats an unbounded driver dict + broadcast:
        # the mixing weights are defined over provenance labels
        # (corpora), not free-cardinality keys like hosts
        raise ValueError(
            f"mix_sample: >{MIX_MAX_SOURCES} distinct sources — "
            "the source column looks like a free-cardinality key; "
            "mix over provenance labels instead")
    cmap = dict(zip(counts["source"].to_pylist(),
                    counts["n"].to_pylist()))
    if not cmap:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "source": pa.array([], pa.string())}))
    # floor(sqrt) in double to match the SQL mirror bit-for-bit
    wmap = {s_: int(np.floor(np.sqrt(float(n_))))
            for s_, n_ in cmap.items()}
    W = sum(wmap.values())
    tmap = {s_: (k * w_) // W for s_, w_ in wmap.items()}
    ref = ray.put((cmap, tmap))

    def keep(batch: pa.Table) -> pa.Table:
        cm, tm = ray.get(ref)
        s = pd.Series(batch["source"].to_numpy(zero_copy_only=False))
        cs = s.map(cm).to_numpy(np.int64)
        ts = s.map(tm).to_numpy(np.int64)
        d = batch["doc_id"].to_numpy()
        h = ((d % MIX_HMOD) * MIX_HMULT + MIX_HADD) % MIX_HMOD
        return pa.table({"doc_id": batch["doc_id"],
                         "source": batch["source"]}).filter(
            pa.array((h % cs) < ts))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def quality_filter(ds, q: float = 0.9):
    """Exact global quantile threshold filter: keep documents whose
    length (n_chars) is >= the corpus's exact ``q``-quantile — the
    top-(1-q) selection step of a quality-filtered training mix.

    The threshold comes from the same integer-histogram sketch as
    ``length_quantiles`` (shuffle bounded by DISTINCT lengths, not
    rows; the driver folds only the tiny histogram), then the filter
    itself is batch-local — no second shuffle.  The quantile is the
    ceil(q*n)-th smallest value, double arithmetic matching the SQL
    mirror bit-for-bit."""
    import math

    L, cnt = length_histogram(ds)
    if not len(L):
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_chars": pa.array([], pa.int64())}))
    cum = np.cumsum(cnt)
    thr = int(L[np.searchsorted(cum, math.ceil(q * int(cum[-1])))])

    def keep(batch: pa.Table) -> pa.Table:
        ln = pc.cast(pc.utf8_length(batch["text"]), pa.int64())
        t = pa.table({"doc_id": batch["doc_id"], "n_chars": ln})
        return t.filter(pc.greater_equal(ln, thr))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def inverted_index(ds, rows_hint: int | None = None):
    """Inverted index build: token -> (df, comma-joined sorted posting
    list of doc_ids) — the retrieval-index / decontamination-lookup
    structure over the corpus.

    Shape: distinct (doc_id, token) pairs from ``doc_token_tf`` (the
    occurrence stream folds in-batch) are hash-partitioned on an
    md5-derived token key; ONE vectorized sort + segmented-join kernel
    per partition emits every token's postings (never one Python call
    per token).  Postings are strings so the oracle compare is a plain
    column (DuckDB string_agg ORDER BY doc_id)."""
    import hashlib

    pairs = ds.map_batches(doc_token_tf, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None) \
        .select_columns(["doc_id", "token"])

    M = (1 << 31) - 1

    def add_tkey(batch: pa.Table) -> pa.Table:
        tok = np.asarray(batch["token"].to_pylist(), dtype=object)
        uniq, inv = np.unique(tok, return_inverse=True)
        ukeys = np.fromiter(
            (int(hashlib.md5(t.encode()).hexdigest()[:15], 16) % M
             for t in uniq.tolist()),
            dtype=np.int64, count=len(uniq))
        return batch.append_column("tkey", pa.array(ukeys[inv]))

    keyed = pairs.map_batches(add_tkey, batch_format="pyarrow",
                              zero_copy_batch=True)

    def postings_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("token", "ascending"), ("doc_id", "ascending")])
        tok = g["token"].to_numpy()
        starts, sizes = runs(tok)
        ids = pc.cast(g["doc_id"], pa.string()).to_numpy()
        posts = [",".join(ids[a:a + sz])
                 for a, sz in zip(starts, sizes)]
        return pa.table({
            "token": pa.array(tok[starts], pa.string()),
            "df": sizes.astype(np.int64),
            "postings": pa.array(posts, pa.string()),
        })

    return partitioned(keyed, "tkey", postings_part,
                       {"token": pa.string(), "df": pa.int64(),
                        "postings": pa.string()},
                       rows_hint=rows_hint or 1)


PACK_RANGE_DOCS = 65536


def pack_sequences(ds, seq_tokens: int = 512,
                   range_docs: int = PACK_RANGE_DOCS):
    """Greedy fixed-token sequence packing: pack_id = floor(exclusive
    prefix-sum of n_tokens in doc_id order / seq_tokens) — which
    training sequence each document lands in when the corpus is
    concatenated in id order.

    This is a distributed EXCLUSIVE PREFIX SUM (windowed scan), done in
    two bounded stages instead of a global sort + single-task scan:
    (1) per-range totals (range = doc_id // range_docs) aggregate to one
    row per range — the only driver-side state, corpus/range_docs rows
    (~15 M at 10^12 docs; raise range_docs to shrink it) — and an
    exclusive cumsum over the sorted ranges is broadcast once;
    (2) each hash partition holds complete ranges (key = rkey), where a
    segmented vectorized scan adds the local exclusive cumsum to the
    range's global offset.  SQL mirror: SUM() OVER (ORDER BY doc_id
    ROWS UNBOUNDED PRECEDING AND 1 PRECEDING)."""
    import ray

    def counts(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        nsp = pc.subtract(
            pc.utf8_length(text),
            pc.utf8_length(pc.replace_substring(text, " ", "")))
        n = pc.cast(pc.add(nsp, 1), pa.int64())
        d = batch["doc_id"]
        return pa.table({
            "doc_id": d, "n_tokens": n,
            "rkey": pa.array(d.to_numpy() // range_docs)})

    # NOT materialized: the counts view is a cheap integer projection —
    # re-executing the read for the scan pass beats pinning an
    # input-sized table in the object store at 100 TB (same reasoning
    # as relational.train_shuffle)
    cnts = ds.map_batches(counts, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)

    def range_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["rkey", "n_tokens"])

    t = collect(aggregate(
        cnts.map_batches(range_cols, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None),
        "rkey", {"t": ("n_tokens", "sum")},
        {"rkey": pa.int64(), "t": pa.int64()}),
                pa.schema([("rkey", pa.int64()), ("t", pa.int64())]))
    if not t.num_rows:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "pack_id": pa.array([], pa.int64())}))
    rk = t["rkey"].to_numpy()
    tot = t["t"].to_numpy()
    order = np.argsort(rk)
    rk, tot = rk[order], tot[order]
    offs = np.concatenate([[0], np.cumsum(tot)[:-1]])
    state_ref = ray.put((rk, offs))

    def scan_part(g: pa.Table) -> pa.Table:
        rkeys, offsets = ray.get(state_ref)
        g = g.sort_by("doc_id")
        n = g["n_tokens"].to_numpy()
        r = g["rkey"].to_numpy()
        c = np.cumsum(n) - n
        starts, sizes = runs(r)
        seg = c - np.repeat(c[starts], sizes)
        pre = seg + offsets[np.searchsorted(rkeys, r)]
        return g.append_column("pack_id",
                               pa.array((pre // seq_tokens).astype(np.int64)))

    n_ranges = len(rk)
    return partitioned(cnts, "rkey", scan_part,
                       {"doc_id": pa.int64(), "n_tokens": pa.int64(),
                        "pack_id": pa.int64()},
                       rows_hint=max(1, n_ranges) * range_docs)


def doc_bigram_tf(batch: pa.Table) -> pa.Table:
    """Tokenize + pre-aggregate to (doc_id, bigram, w1, tf) — one row
    per DISTINCT (doc, bigram); the occurrence stream never leaves the
    task (same contract as ``doc_token_tf``)."""
    import pandas as pd

    toks = pc.split_pattern(batch["text"], " ")
    lens = pc.list_value_length(toks).to_numpy()
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    m = len(flat) - 1
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "b": pa.array([], pa.string()),
                      "w1": pa.array([], pa.string()),
                      "tf": pa.array([], pa.int64())})
    if m <= 0:
        return empty
    did_all = np.repeat(batch["doc_id"].to_numpy(), lens)
    row = np.repeat(np.arange(len(lens)), lens)
    ok = row[:m] == row[1:]
    if not ok.any():
        return empty
    w1 = pd.Series(flat[:m][ok], dtype=object)
    b = w1 + " " + pd.Series(flat[1:][ok], dtype=object)
    df = pd.DataFrame({"doc_id": did_all[:m][ok], "b": b, "w1": w1})
    g = df.groupby(["doc_id", "b", "w1"], as_index=False).size()
    return pa.table({
        "doc_id": pa.array(g["doc_id"].to_numpy()),
        "b": pa.array(g["b"].to_numpy(), pa.string()),
        "w1": pa.array(g["w1"].to_numpy(), pa.string()),
        "tf": pa.array(g["size"].to_numpy().astype(np.int64))})


def bigram_surprisal(ds, rows_hint: int | None = None):
    """Per-document BIGRAM conditional surprisal (milli-nats) — the
    n-gram-LM quality filter (CCNet-style): score = sum over bigram
    occurrences of floor(-1000 * ln(c(w1 w2) / c(w1 ·))), i.e. the
    corpus-trained bigram model's negative log-likelihood, integerized
    per bigram VALUE so the tf-weighted per-doc sum is
    order-independent and hash-exact.

    Shape: distinct (doc, bigram, tf) pre-aggregated in-batch ->
    bigram count table (vocab^2-bounded) -> context counts derived
    FROM the bigram table (no second corpus pass) -> one small
    cb x cw join scores every bigram -> ONE hash join of the pair
    rows to scores -> per-doc Sum."""

    pairs = ds.map_batches(doc_bigram_tf, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=16384)

    def cb_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["b", "w1", "tf"])

    cb = aggregate(
        pairs.map_batches(cb_cols, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        ["b", "w1"], {"n": ("tf", "sum")},
        {"b": pa.string(), "w1": pa.string(), "n": pa.int64()}) \
        .materialize()

    def cw_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["w1", "n"])

    cw = aggregate(
        cb.map_batches(cw_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "w1", {"cn": ("n", "sum")},
        {"w1": pa.string(), "cn": pa.int64()})

    from .relational import join_partitions_for

    # hint sizes the corpus-scale hash joins below; when the caller
    # has no footer count, derive one (docs x ~64 distinct bigrams,
    # the same bound surprisal() uses) instead of defaulting to a
    # single join partition.  ds.count() is metadata-only for a plain
    # parquet read; a TRANSFORMED input pays one extra pass — callers
    # at scale should pass rows_hint (the __ray_entry__ wrapper does)
    hint = rows_hint if rows_hint is not None else ds.count() * 64
    np_small = join_partitions_for(hint)
    scored = cb.join(cw, join_type="inner", num_partitions=np_small,
                     on=("w1",))

    def score(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy().astype(np.float64)
        cn = batch["cn"].to_numpy().astype(np.float64)
        s = np.floor(-1000.0 * np.log(n / cn)).astype(np.int64)
        return pa.table({"b": batch["b"], "s": pa.array(s)})

    sc = scored.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)
    j = pairs.join(sc, join_type="inner", num_partitions=np_small,
                   on=("b",))

    def weigh(batch: pa.Table) -> pa.Table:
        tf = batch["tf"].to_numpy()
        return pa.table({"doc_id": batch["doc_id"],
                         "sm": pa.array(batch["s"].to_numpy() * tf),
                         "tf": pa.array(tf)})

    return aggregate(
        j.map_batches(weigh, batch_format="pyarrow",
                      zero_copy_batch=True),
        "doc_id", {"bigram_surprisal_milli": ("sm", "sum"),
         "n_bigrams": ("tf", "sum")},
        {"doc_id": pa.int64(), "bigram_surprisal_milli": pa.int64(),
         "n_bigrams": pa.int64()})


PMI_MIN_COUNT = 5     # bigram support floor for collocation candidates
PMI_TOPK = 100        # global top-k collocations reported

KEYNESS_MIN_COUNT = 5   # in-source support floor for keyword candidates
KEYNESS_TOPK = 20       # keywords reported per source


ZIPF_SEG = 1 << 20    # max ranks per computed segment (bounds task heap)
HIST_MAX_VALUES = 1_000_000  # driver-fold bound for distinct lengths/freqs


def _fold_rows(source, schema: pa.Schema, limit: int, site: str,
               what: str) -> pa.Table:
    """``collect`` for a driver fold that has no distributed path: more
    than ``limit`` rows raise, and the rest are not pulled."""
    t = collect(source, schema, limit)
    if t is None:
        raise ValueError(f"{site}: {what} exceeds the {limit} "
                         "driver-fold bound")
    return t


def _length_grid(hist, site: str) -> pa.Table:
    """Per-(source, x) counts ``hist`` -> the global (x, c) histogram
    in ascending x, one row per distinct length (under
    HIST_MAX_VALUES)."""

    def g_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["x", "c"])

    return _fold_rows(
        aggregate(
            hist.map_batches(g_cols, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None),
            "x", {"c": ("c", "sum")},
            {"x": pa.int64(), "c": pa.int64()}),
        pa.schema([("x", pa.int64()), ("c", pa.int64())]),
        HIST_MAX_VALUES, site, "distinct length count").sort_by("x")


def ks_drift(ds):
    """Per-source two-sample Kolmogorov-Smirnov drift statistic of the
    document-length distribution (source vs rest-of-corpus) — the
    distribution-shift detector of a corpus-mix pipeline, in
    division-free integer form: with A(v) the source's cumulative
    count at length v, B(v) the rest's, na/nb the totals,
    ``d_scaled = max over distinct lengths v of
    |nb*A(v) - na*B(v)|`` (the classic D statistic times na*nb, so no
    float CDF ever exists).  The max over the GLOBAL distinct-value
    grid is exact — the KS sup is attained at a sample point.

    Scale shape: one corpus pass to (source, length) map-side partial
    counts, one histogram groupby, then a per-source vectorized kernel
    over the value grid with the GLOBAL cumulative histogram broadcast
    once via ``ray.put`` (distinct lengths x sources bounded — the
    same contract as length_quantiles/gini)."""
    import ray

    def hist_cols(batch: pa.Table) -> pa.Table:
        return pa.table({"source": batch["source"],
                         "x": pc.cast(batch["n_chars"], pa.int64())})

    hist = aggregate(
        ds.map_batches(hist_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["source", "x"], {"c": ("source", "count")},
        {"source": pa.string(), "x": pa.int64(), "c": pa.int64()}) \
        .materialize()

    gl = _length_grid(hist, "ks_drift")
    if not gl.num_rows:
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "source": pa.array([], pa.string()),
            "n_src": pa.array([], pa.int64()),
            "d_scaled": pa.array([], pa.int64())}))
    gx = gl["x"].to_numpy()
    gcum = np.cumsum(gl["c"].to_numpy())
    n_tot = int(gcum[-1])
    grid = ray.put((gx, gcum))

    def kernel(g):
        import pandas as pd

        gx_, gcum_ = ray.get(grid)
        g = g.sort_values("x", kind="stable")
        pos = np.searchsorted(gx_, g["x"].to_numpy())
        a = np.zeros(len(gx_), dtype=np.int64)
        a[pos] = g["c"].to_numpy()
        a = np.cumsum(a)
        na = int(a[-1])
        b = gcum_ - a
        nb = n_tot - na
        d = int(np.abs(nb * a - na * b).max())
        return pd.DataFrame({"source": [g["source"].iloc[0]],
                             "n_src": [np.int64(na)],
                             "d_scaled": [np.int64(d)]})

    return hist.groupby("source").map_groups(
        kernel, batch_format="pandas")


def zipf_fit(ds):
    """Zipf rank-frequency regression components over the corpus
    vocabulary — the classic log-log fit of frequency vs rank, with
    rank = ROW_NUMBER over (freq DESC, token ASC).  Emits the one-row
    integer component table (n_vocab, sx, sy, sxy, sxx) of the least
    squares fit over lx = floor(1000*ln(rank)), ly =
    floor(1000*ln(freq)); the slope/intercept are derivable downstream
    without any float reduction crossing the engine/oracle boundary.

    KEY REDUCTION: within an equal-frequency run, ly is constant and
    the ranks are exactly the integer range (offset, offset+cnt] —
    WHICH token gets which rank never matters to the sums.  So the
    whole statistic needs only the FREQUENCY HISTOGRAM (distinct
    frequency values — O(sqrt(total occurrences)) by Zipf, thousands
    even at corpus scale, the documented driver-fold bound), never a
    vocabulary-wide rank assignment: one corpus pass to batch-local
    token partials, one vocab-bounded groupby, one histogram groupby,
    a driver cumsum over the tiny histogram, then rank-range segments
    (chunked to ZIPF_SEG) evaluated as distributed vectorized tasks."""

    def tok_cols(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        return pa.table({"token": pc.list_flatten(toks)})

    vocab = aggregate(
        ds.map_batches(tok_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=16384),
        "token", {"f": ("token", "count")},
        {"token": pa.string(), "f": pa.int64()})

    fhist = _fold_rows(
        aggregate(
            vocab,
            "f", {"cnt": ("f", "count")},
            {"f": pa.int64(), "cnt": pa.int64()}),
        pa.schema([("f", pa.int64()), ("cnt", pa.int64())]),
        HIST_MAX_VALUES, "zipf_fit", "distinct frequency count")
    if not fhist.num_rows:
        return pa.table({"n_vocab": pa.array([0], pa.int64()),
                         "sx": pa.array([0], pa.int64()),
                         "sy": pa.array([0], pa.int64()),
                         "sxy": pa.array([0], pa.int64()),
                         "sxx": pa.array([0], pa.int64())})

    fhist = fhist.sort_by([("f", "descending")])
    segs, off = [], 0
    for f, cnt in zip(fhist["f"].to_pylist(), fhist["cnt"].to_pylist()):
        ly = int(np.floor(1000.0 * np.log(float(f))))
        start = off
        while start < off + cnt:
            ln = min(ZIPF_SEG, off + cnt - start)
            segs.append((ly, start, ln))
            start += ln
        off += cnt
    n_vocab = off

    import ray.data as rd

    seg_ds = rd.from_arrow(pa.table({
        "ly": pa.array([s[0] for s in segs], pa.int64()),
        "start": pa.array([s[1] for s in segs], pa.int64()),
        "len": pa.array([s[2] for s in segs], pa.int64())}))

    def seg_sums(batch: pa.Table) -> pa.Table:
        sx = sy = sxy = sxx = 0
        for ly, st, ln in zip(batch["ly"].to_numpy(),
                              batch["start"].to_numpy(),
                              batch["len"].to_numpy()):
            r = np.arange(st + 1, st + ln + 1, dtype=np.float64)
            lx = np.floor(1000.0 * np.log(r)).astype(np.int64)
            sx += int(lx.sum())
            sy += int(ly) * int(ln)
            sxy += int(ly) * int(lx.sum())
            sxx += int((lx * lx).sum())
        return pa.table({"sx": pa.array([sx]), "sy": pa.array([sy]),
                         "sxy": pa.array([sxy]),
                         "sxx": pa.array([sxx])})

    names = ["sx", "sy", "sxy", "sxx"]
    tot = aggregate(seg_ds.map_batches(seg_sums, batch_format="pyarrow",
                                       batch_size=8),
                    [], {c: (c, "sum") for c in names},
                    {c: pa.int64() for c in names}).take_all()[0]
    return pa.table({"n_vocab": pa.array([n_vocab], pa.int64()),
                     **{c: pa.array([tot[c]], pa.int64()) for c in names}})


def mannwhitney_u(ds):
    """Per-source Mann-Whitney rank-sum drift of the length
    distribution (source vs rest-of-corpus) — the nonparametric
    location-shift companion to ``ks_drift`` (KS is max deviation,
    U is total rank mass).  Division-free doubled form so ties stay
    integer: ``u2 = sum over distinct lengths v of
    a_v * (2*B_below(v) + b_v)`` (each tie pair contributes 1 to 2U);
    u2 == na*nb means perfect balance, 0 / 2*na*nb the extremes.

    Scale shape: identical to ks_drift — (source, length) map-side
    partial counts, one histogram groupby, a per-source vectorized
    kernel over the value grid with the GLOBAL cumulative histogram
    broadcast once via ``ray.put``."""
    import ray

    def hist_cols(batch: pa.Table) -> pa.Table:
        return pa.table({"source": batch["source"],
                         "x": pc.cast(batch["n_chars"], pa.int64())})

    hist = aggregate(
        ds.map_batches(hist_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["source", "x"], {"c": ("source", "count")},
        {"source": pa.string(), "x": pa.int64(), "c": pa.int64()}) \
        .materialize()

    gl = _length_grid(hist, "mannwhitney_u")
    if not gl.num_rows:
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "source": pa.array([], pa.string()),
            "n_src": pa.array([], pa.int64()),
            "u2": pa.array([], pa.int64())}))
    gx = gl["x"].to_numpy()
    gc = gl["c"].to_numpy()
    gbelow = np.concatenate([[0], np.cumsum(gc)[:-1]])
    n_tot = int(gc.sum())
    grid = ray.put((gx, gc, gbelow))

    def kernel(g):
        import pandas as pd

        gx_, gc_, gbelow_ = ray.get(grid)
        pos = np.searchsorted(gx_, g["x"].to_numpy())
        a = np.zeros(len(gx_), dtype=np.int64)
        a[pos] = g["c"].to_numpy()
        na = int(a.sum())
        abelow = np.concatenate([[0], np.cumsum(a)[:-1]])
        bbelow = gbelow_ - abelow
        b_at = gc_ - a
        u2 = int((a * (2 * bbelow + b_at)).sum())
        return pd.DataFrame({"source": [g["source"].iloc[0]],
                             "n_src": [np.int64(na)],
                             "u2": [np.int64(u2)]})

    return hist.groupby("source").map_groups(
        kernel, batch_format="pandas")


def lexical_entropy(ds):
    """Per-document lexical-diversity profile — token total, distinct
    count, and the integer entropy term ``ent_term_milli =
    sum over distinct tokens of tf * floor(1000 * ln(tf))`` (the
    order-independent integer-quantized piece of Shannon entropy:
    H = ln(n) - ent_term/1000/n, derivable downstream without any
    float reduction crossing the engine/oracle boundary).

    Scale shape: documents are row-atomic, so the whole computation is
    batch-local — tokenize, one in-batch (doc, token) groupby, one
    in-batch per-doc fold; NOTHING shuffles.  The quantization is per
    tf VALUE (floor before the sum), so the integer per-doc sum is
    reduction-order-free and hash-exact."""

    def kernel(batch: pa.Table) -> pa.Table:
        tf = doc_token_tf(batch)
        df = tf.to_pandas()
        t = df["tf"].to_numpy()
        df["ent"] = t * np.floor(1000.0 * np.log(
            t.astype(np.float64))).astype(np.int64)
        g = df.groupby("doc_id", as_index=False).agg(
            n_tokens=("tf", "sum"), n_distinct=("tf", "size"),
            ent_term_milli=("ent", "sum"))
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy()),
            "n_tokens": pa.array(g["n_tokens"].to_numpy()
                                 .astype(np.int64)),
            "n_distinct": pa.array(g["n_distinct"].to_numpy()
                                   .astype(np.int64)),
            "ent_term_milli": pa.array(g["ent_term_milli"].to_numpy()
                                       .astype(np.int64))})

    return ds.map_batches(kernel, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=16384)


def keyness_topk(ds):
    """Per-source keyword extraction by Dunning log-likelihood (G2)
    keyness — the corpus-linguistics "what words characterize this
    source vs the rest" operator, distinct from tf-idf (document
    weighting) and PMI (bigram association).  For token t in source s
    with in-source occurrence count a, rest-of-corpus count b, source
    occurrence total NA and corpus total N:
    ``G2 = 2*(a*ln(a/E1) + b*ln(b/E2))`` with expected counts
    ``E1 = (a+b)*NA/N`` and ``E2 = (a+b)*(N-NA)/N`` (the b term is 0
    when b = 0); reported as floor(1000*G2) so the double expression
    is identical to the oracle's and hash-exact.  Top KEYNESS_TOPK per
    source by (g2_milli DESC, token ASC), support floor a >= 5.

    Scale shape: ONE corpus pass emits batch-local (source, token)
    partial counts (the occurrence stream never shuffles); the
    source-token table is |sources| x vocab bounded.  Token row totals
    come from a groupby of that table, source totals from a tiny
    aggregate broadcast as a driver dict (|sources| entries).  The
    per-source top-k is a two-stage partial top-k (each batch emits
    <= sources*k rows before the single final fold), never a global
    sort."""

    from .relational import join_partitions_for

    def st_cols(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        n = pc.list_value_length(toks).to_numpy()
        return pa.table({
            "source": pa.array(np.repeat(
                batch["source"].to_numpy(zero_copy_only=False), n)),
            "token": pc.list_flatten(toks)})

    st = aggregate(
        ds.map_batches(st_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=16384),
        ["source", "token"], {"a": ("source", "count")},
        {"source": pa.string(), "token": pa.string(), "a": pa.int64()}) \
        .materialize()

    def tt_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["token", "a"])

    tt = aggregate(
        st.map_batches(tt_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "token", {"t": ("a", "sum")},
        {"token": pa.string(), "t": pa.int64()})

    # source totals: |sources| rows — a driver dict, not a join side
    tot = _fold_rows(aggregate(
        st,
        "source", {"a": ("a", "sum")},
        {"source": pa.string(), "a": pa.int64()}),
                     pa.schema([("source", pa.string()), ("a", pa.int64())]),
                     MODE_MAX_LANGS, "keyness_topk", "source count")
    na = dict(zip(tot["source"].to_pylist(), tot["a"].to_pylist()))
    n_tot = sum(na.values())

    np_small = join_partitions_for(st.count())
    cand = st.filter(expr=f"a >= {KEYNESS_MIN_COUNT}") \
        .join(tt, join_type="inner", num_partitions=np_small,
              on=("token",))

    def score(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy()
        b = batch["t"].to_numpy() - a
        src = batch["source"].to_numpy(zero_copy_only=False)
        na_i = np.array([na[s] for s in src], dtype=np.int64)
        nb_i = n_tot - na_i
        af = a.astype(np.float64)
        bf = b.astype(np.float64)
        abf = (a + b).astype(np.float64)
        naf = na_i.astype(np.float64)
        nbf = nb_i.astype(np.float64)
        nf = float(n_tot)
        t1 = af * np.log(af / ((abf * naf) / nf))
        with np.errstate(divide="ignore", invalid="ignore"):
            t2 = np.where(b == 0, 0.0,
                          bf * np.log(bf / ((abf * nbf) / nf)))
        g2 = np.floor(1000.0 * (2.0 * (t1 + t2))).astype(np.int64)
        return pa.table({"source": batch["source"],
                         "token": batch["token"],
                         "a": batch["a"],
                         "g2_milli": pa.array(g2)})

    scored = cand.map_batches(score, batch_format="pyarrow",
                              zero_copy_batch=True)

    def topk_part(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["source", "g2_milli", "token"],
                            ascending=[True, False, True],
                            kind="stable")
        return pa.Table.from_pandas(
            df.groupby("source", sort=False).head(KEYNESS_TOPK),
            preserve_index=False)

    return scored.map_batches(topk_part, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(topk_part, batch_format="pyarrow",
                     batch_size=None)


def pmi_topk(ds):
    """Top-PMI bigram collocations (integer milli-nats) — the
    collocation-mining primitive of a corpus-analysis pipeline: for
    every bigram with corpus occurrence count n >= PMI_MIN_COUNT,
    ``pmi_milli = floor(1000 * ln((n * T) / (c1 * c2)))`` where T is
    the total bigram-occurrence count and c1/c2 are the
    occurrence-weighted first-/second-word marginals; report the
    global PMI_TOPK by (pmi_milli DESC, b ASC) — a total order, so the
    limit boundary is deterministic.

    Scale shape: the only corpus pass is ``doc_bigram_tf`` (distinct
    (doc, bigram) rows leave each task; the occurrence stream never
    shuffles).  Everything downstream runs on the vocab^2-bounded
    bigram-count table: two marginal groupbys, a support filter BEFORE
    the joins (marginals are computed over the full table, but only
    candidates pay join cost), one vectorized score, and a sort+limit
    whose input is candidate-bounded, never corpus-bounded.  The ln is
    evaluated on the identical double expression the DuckDB oracle
    uses ((n*T)/(c1*c2)), so the floor-quantized score is hash-exact.
    """

    from .relational import join_partitions_for

    pairs = ds.map_batches(doc_bigram_tf, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=16384)

    def cb_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["b", "w1", "tf"])

    cb = aggregate(
        pairs.map_batches(cb_cols, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        ["b", "w1"], {"n": ("tf", "sum")},
        {"b": pa.string(), "w1": pa.string(), "n": pa.int64()}) \
        .materialize()

    def add_w2(batch: pa.Table) -> pa.Table:
        # b == w1 || ' ' || w2 with exactly one space (tokens come
        # from splitting text on ' ', so they contain none); split at
        # the first space rather than slicing by w1's length to stay
        # codepoint-safe
        w2 = pc.list_element(
            pc.split_pattern(batch["b"], " ", max_splits=1), 1)
        return batch.append_column("w2", w2)

    cbw = cb.map_batches(add_w2, batch_format="pyarrow",
                         zero_copy_batch=True).materialize()

    def c1_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["w1", "n"])

    def c2_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["w2", "n"])

    c1 = aggregate(
        cbw.map_batches(c1_cols, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=None),
        "w1", {"n1": ("n", "sum")},
        {"w1": pa.string(), "n1": pa.int64()})
    c2 = aggregate(
        cbw.map_batches(c2_cols, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=None),
        "w2", {"n2": ("n", "sum")},
        {"w2": pa.string(), "n2": pa.int64()})

    tot = float(aggregate(cbw, [], {"t": ("n", "sum")},  # T: one scalar
                          {"t": pa.int64()}).take_all()[0]["t"])
    n_bigrams = cbw.count()              # metadata-cheap (materialized)
    np_small = join_partitions_for(n_bigrams)

    cand = cbw.filter(expr=f"n >= {PMI_MIN_COUNT}")
    j = cand.join(c1, join_type="inner", num_partitions=np_small,
                  on=("w1",)) \
        .join(c2, join_type="inner", num_partitions=np_small,
              on=("w2",))

    def score(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy().astype(np.float64)
        n1 = batch["n1"].to_numpy().astype(np.float64)
        n2 = batch["n2"].to_numpy().astype(np.float64)
        pmi = np.floor(1000.0 * np.log((n * tot) / (n1 * n2))) \
            .astype(np.int64)
        return pa.table({"b": batch["b"], "n": batch["n"],
                         "pmi_milli": pa.array(pmi)})

    return j.map_batches(score, batch_format="pyarrow",
                         zero_copy_batch=True) \
        .sort(["pmi_milli", "b"], descending=[True, False]) \
        .limit(PMI_TOPK)


def host_stats(ds):
    """Per-(host, top path segment) crawl rollup — the host-level
    aggregation sweep of a Common-Crawl pipeline: page count, total
    text chars, and DISTINCT language count per registrable host and
    first path segment, parsed from the url with one vectorized regex.

    Scale shape: per-batch partial aggregation over (host, seg, lang)
    (one row per distinct triple per batch crosses the shuffle — never
    pages), one groupby to fold partials, then the distinct-lang count
    is a second groupby over the already-(host, seg, lang)-sized table
    (the distinct_users two-stage pattern)."""

    pat = r"^(?P<scheme>[a-z0-9+.-]+)://(?P<host>[^/]+)/(?P<seg>[^/]*)"

    def cols(batch: pa.Table) -> pa.Table:
        parts = pc.extract_regex(batch["url"], pat)
        nch = pc.cast(pc.utf8_length(batch["text"]), pa.int64())
        # non-matching urls: DuckDB regexp_extract returns '' while
        # Arrow extract_regex returns null — canonicalize to '' so the
        # engine and oracle group degenerate urls identically
        return pa.table({
               "host": pc.fill_null(pc.struct_field(parts, "host"), ""),
               "seg": pc.fill_null(pc.struct_field(parts, "seg"), ""),
               "lang": batch["lang"],
               "c": pa.array(np.ones(len(batch), dtype=np.int64)),
               "nch": nch})

    per_lang = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["host", "seg", "lang"], {"c": ("c", "sum"), "nch": ("nch", "sum")},
        {"host": pa.string(), "seg": pa.string(), "lang": pa.string(),
         "c": pa.int64(), "nch": pa.int64()})
    return aggregate(
        per_lang,
        ["host", "seg"], {"n_pages": ("c", "sum"),
         "total_chars": ("nch", "sum"), "n_langs": ("host", "count")},
        {"host": pa.string(), "seg": pa.string(), "n_pages": pa.int64(),
         "total_chars": pa.int64(), "n_langs": pa.int64()})


CCNET_Q1, CCNET_Q2 = 1.0, 2.0  # tertile numerators (q = k/3)


def ccnet_buckets(ds):
    """CCNet-style head/middle/tail corpus split: every document is
    assigned a quality bucket by exact global TERTILES of the quality
    score (here the doc-length proxy, the same score quality_filter
    thresholds on; a perplexity column drops in unchanged).

    Thresholds are the ceil(k*n/3)-th smallest lengths from the
    length-histogram sketch (shuffle bounded by distinct lengths);
    the two ints broadcast implicitly in the closure and assignment is
    batch-local — no second shuffle.  Output (doc_id, n_chars,
    bucket)."""
    import math

    import ray.data as rd

    L, cnt = length_histogram(ds)
    if not len(L):
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_chars": pa.array([], pa.int64()),
            "bucket": pa.array([], pa.string())}))
    cum = np.cumsum(cnt)
    total = int(cum[-1])
    # double arithmetic in the same order as the SQL mirror
    t1 = int(L[np.searchsorted(cum, math.ceil(CCNET_Q1 * total / 3.0))])
    t2 = int(L[np.searchsorted(cum, math.ceil(CCNET_Q2 * total / 3.0))])

    def assign(batch: pa.Table) -> pa.Table:
        ln = pc.cast(pc.utf8_length(batch["text"]), pa.int64())
        lnp = ln.to_numpy()
        b = np.where(lnp > t2, "head",
                     np.where(lnp > t1, "middle", "tail"))
        return pa.table({"doc_id": batch["doc_id"], "n_chars": ln,
                         "bucket": pa.array(b.tolist(), pa.string())})

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True)


def _lang_hist(hist):
    """A keyed (lang, L, n) length-histogram Dataset as three driver
    arrays."""
    t = collect(hist, pa.schema([("lang", pa.string()), ("L", pa.int64()),
                                 ("n", pa.int64())]))
    return (t["lang"].to_numpy(zero_copy_only=False), t["L"].to_numpy(),
            t["n"].to_numpy())


def quantiles_by_lang(ds):
    """Exact per-language discrete length quantiles (p50/p90/p99) via
    the KEYED integer-histogram sketch: per-batch (lang, length, count)
    partials -> one groupby Sum bounded by langs x DISTINCT lengths
    (never rows) -> per-lang cumulative fold on the driver.  Quantile
    definition matches ``length_quantiles`` (ceil(q*n)-th smallest,
    double arithmetic as in the SQL mirror)."""
    import math

    import ray.data as rd

    def cols(batch: pa.Table) -> pa.Table:
        return pa.table({"lang": batch["lang"],
                         "L": pc.cast(pc.utf8_length(batch["text"]),
                                      pa.int64())})

    hist = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["lang", "L"], {"n": ("lang", "count")},
        {"lang": pa.string(), "L": pa.int64(), "n": pa.int64()})

    lang, L, n = _lang_hist(hist)
    if not len(lang):
        return rd.from_arrow(pa.table(
            {"lang": pa.array([], pa.string()),
             **{f"p{int(q * 100)}": pa.array([], pa.int64())
                for q in QUANTILES}}))
    out = {"lang": [], **{f"p{int(q * 100)}": [] for q in QUANTILES}}
    for lg in sorted(set(lang.tolist())):
        m = lang == lg
        Li, ni = L[m], n[m]
        order = np.argsort(Li)
        Li, ni = Li[order], ni[order]
        cum = np.cumsum(ni)
        total = int(cum[-1])
        out["lang"].append(lg)
        for q in QUANTILES:
            idx = math.ceil(q * total)
            out[f"p{int(q * 100)}"].append(
                int(Li[np.searchsorted(cum, idx)]))
    return rd.from_arrow(pa.table(
        {"lang": pa.array(out["lang"], pa.string()),
         **{k: pa.array(out[k], pa.int64())
            for k in out if k != "lang"}}))


def mad_by_lang(ds):
    """Per-language robust spread: exact median and median absolute
    deviation of document length.  ONE distributed pass builds the
    keyed integer histogram (lang, n_chars) -> count (bounded by langs
    x distinct lengths, never rows); both order statistics then fold
    from that SAME histogram on the driver — the deviation histogram
    |L - med| is a pure re-key of the length histogram, so MAD costs
    no second scan.  Quantile definition: ceil(0.5*n)-th smallest
    (the length_quantiles/quantiles_by_lang convention)."""
    import math

    import ray.data as rd

    def cols(batch: pa.Table) -> pa.Table:
        return pa.table({"lang": batch["lang"], "L": batch["n_chars"]})

    hist = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["lang", "L"], {"n": ("lang", "count")},
        {"lang": pa.string(), "L": pa.int64(), "n": pa.int64()})

    lang, L, n = _lang_hist(hist)
    if not len(lang):
        return rd.from_arrow(pa.table(
            {"lang": pa.array([], pa.string()),
             "med": pa.array([], pa.int64()),
             "mad": pa.array([], pa.int64())}))

    def _q50(vals: np.ndarray, cnts: np.ndarray) -> int:
        order = np.argsort(vals)
        v, c = vals[order], cnts[order]
        cum = np.cumsum(c)
        idx = math.ceil(0.5 * int(cum[-1]))
        return int(v[np.searchsorted(cum, idx)])

    out = {"lang": [], "med": [], "mad": []}
    for lg in sorted(set(lang.tolist())):
        m = lang == lg
        Li, ni = L[m], n[m]
        med = _q50(Li, ni)
        # deviation histogram: re-key |L - med|, merge equal keys
        D = np.abs(Li - med)
        u, inv = np.unique(D, return_inverse=True)
        dc = np.zeros(len(u), dtype=np.int64)
        np.add.at(dc, inv, ni)
        out["lang"].append(lg)
        out["med"].append(med)
        out["mad"].append(_q50(u, dc))
    return rd.from_arrow(pa.table(
        {"lang": pa.array(out["lang"], pa.string()),
         "med": pa.array(out["med"], pa.int64()),
         "mad": pa.array(out["mad"], pa.int64())}))


SEARCH_TERMS = ("data", "join", "stream")   # fixed demo query
SEARCH_TOPK = 20


def _doc_freqs(pairs):
    """(token, df) pairs of a (doc_id, token) Dataset with one row per
    document and term: per-batch counts -> one groupby Sum, collected
    to the driver (bounded by the query terms)."""

    t = collect(aggregate(
        pairs,
        "token", {"df": ("token", "count")},
        {"token": pa.string(), "df": pa.int64()}),
                pa.schema([("token", pa.string()), ("df", pa.int64())]))
    return zip(t["token"].to_pylist(), t["df"].to_numpy())


def search_topk(ds, n_docs: int):
    """Multi-term retrieval: rank documents for a fixed query by
    summed tf-idf (milli-nat integer idf, the tfidf_topk convention) —
    the search-engine probe over the same inverted-index statistics.

    Scale shape: the tokenizer's (doc, token, tf) stream is filtered
    to the query terms IN the map task (the shuffle carries <=
    |terms| rows per doc, never the vocabulary); document frequencies
    for the <= |terms| query tokens fold on the driver and ship back
    as a closure constant; the per-doc score is one map-side-partial
    groupby; top-k is per-batch partial top-k + a k-bounded final
    reduce — no global sort."""

    terms = list(SEARCH_TERMS)

    def q_pairs(batch: pa.Table) -> pa.Table:
        t = doc_token_tf(batch)
        return t.filter(pc.is_in(t["token"],
                                 value_set=pa.array(terms)))

    pairs = ds.map_batches(q_pairs, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None) \
        .materialize()   # consumed twice: df fold + scoring

    idf = {tok: int(np.floor(1000.0 * np.log(float(n_docs) / float(dfv))))
           for tok, dfv in _doc_freqs(pairs)}

    def score_cols(batch: pa.Table) -> pa.Table:
        tok = batch["token"].to_pylist()
        sc = batch["tf"].to_numpy() * np.array(
            [idf[t] for t in tok], dtype=np.int64)
        t = pa.table({"doc_id": batch["doc_id"],
                      "score_milli": pa.array(sc)})
        return t

    scored = aggregate(
        pairs.map_batches(score_cols, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        "doc_id", {"score_milli": ("score_milli", "sum")},
        {"doc_id": pa.int64(), "score_milli": pa.int64()})

    def topk_part(batch: pa.Table) -> pa.Table:
        idx = pc.sort_indices(batch, sort_keys=[
            ("score_milli", "descending"), ("doc_id", "ascending")])
        return batch.take(idx[:SEARCH_TOPK])

    def finish(batch: pa.Table) -> pa.Table:
        t = topk_part(batch)
        return t.append_column("rk", pa.array(
            np.arange(1, len(t) + 1, dtype=np.int64)))

    return scored.map_batches(topk_part, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(finish, batch_format="pyarrow", batch_size=None)


WINNOW_K = 8    # k-gram (bytes) for the winnowing hash
WINNOW_W = 4    # winnowing window (guarantee: any match >= k+w-1
#                 bytes shares a selected fingerprint)


def winnow_fingerprints(ds, k: int = WINNOW_K, w: int = WINNOW_W):
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken,
    SIGMOD '03 — the standard local fingerprint selection behind MOSS
    and plagiarism/near-dup detection): hash every k-byte gram with
    the house polynomial rolling hash (FP_BASE/FP_MOD — the
    Fingerprint convention), then in each window of ``w`` consecutive
    gram hashes select the minimum, RIGHTMOST on ties; the distinct
    selected positions are the document's fingerprints.

    Output per doc: (doc_id, n_grams, n_selected, fp_min, fp_sum) —
    selected-set summary stats, integer-exact (fp_sum fits int64:
    <= n_grams * FP_MOD < 2^63 for any realistic document).
    Documents with fewer than k+w-1 bytes emit the sentinel row
    (n_grams as-is, 0, -1, 0) — COALESCEd identically in the mirror.

    Scale shape: ZERO shuffle — grams never leave the batch (rows are
    whole documents); per doc the hash is one (m,k) x (k,) window
    product and the selection one (m-w+1, w) window argmin."""
    pows = np.ones(k, dtype=np.int64)
    for i in range(1, k):
        pows[i] = pows[i - 1] * FP_BASE % FP_MOD

    def screen(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n = len(texts)
        n_grams = np.zeros(n, np.int64)
        n_sel = np.zeros(n, np.int64)
        fp_min = np.full(n, -1, np.int64)
        fp_sum = np.zeros(n, np.int64)
        for r, t in enumerate(texts):
            arr = np.frombuffer(t.encode(), dtype=np.uint8) \
                .astype(np.int64)
            m = len(arr) - k + 1
            if m > 0:
                n_grams[r] = m
            if m < w:
                continue
            win = np.lib.stride_tricks.sliding_window_view(arr, k)
            h = (win * pows % FP_MOD).sum(axis=1) % FP_MOD
            ww = np.lib.stride_tricks.sliding_window_view(h, w)
            # rightmost min: argmin of the REVERSED window is the
            # first (=rightmost original) position of the minimum
            ridx = (w - 1) - np.argmin(ww[:, ::-1], axis=1)
            pos = np.unique(np.arange(m - w + 1) + ridx)
            sel = h[pos]
            n_sel[r] = len(sel)
            fp_min[r] = int(sel.min())
            fp_sum[r] = int(sel.sum())
        return pa.table({"doc_id": batch["doc_id"],
                         "n_grams": pa.array(n_grams),
                         "n_selected": pa.array(n_sel),
                         "fp_min": pa.array(fp_min),
                         "fp_sum": pa.array(fp_sum)})

    return ds.map_batches(screen, batch_format="pyarrow",
                          zero_copy_batch=True)


BM25_K1 = 1.2
BM25_B = 0.75


def bm25_topk(ds, n_docs: int):
    """BM25 retrieval for the fixed SEARCH_TERMS query (Robertson &
    Zaragoza's Okapi BM25, the standard lexical ranker): per doc,
    ``sum_t idf(t) * (tf*(k1+1)) / (tf + k1*(1-b + b*dl/avgdl))``
    with the plus-half idf ``ln(((N - df) + 0.5) / (df + 0.5))``.

    Integer contract (shared with the SQL mirror): idf is
    floor-quantized to milli-nats per TERM; each term's contribution
    is floor-quantized to an int64 AFTER the double division (same
    IEEE expression order both sides, spelled out below); the doc
    score is the order-independent int sum of term floors.

    Scale shape mirrors search_topk: the (doc, term, tf) stream is
    filtered to the <= |terms| query tokens in the map task with the
    doc length attached batch-locally; corpus length totals fold as
    two scalars; dfs fold as <= |terms| rows; scoring is one
    map-side-partial groupby; top-k is per-batch partial top-k + a
    k-bounded final reduce — no global sort."""

    terms = list(SEARCH_TERMS)

    def q_pairs(batch: pa.Table) -> pa.Table:
        t = doc_token_tf(batch)
        # batch-local doc length (rows are whole docs)
        g = t.group_by("doc_id").aggregate([("tf", "sum")])
        dl_map = dict(zip(g["doc_id"].to_pylist(),
                          g["tf_sum"].to_pylist()))
        f = t.filter(pc.is_in(t["token"], value_set=pa.array(terms)))
        dl = pa.array([int(dl_map[d]) for d in
                       f["doc_id"].to_pylist()], pa.int64())
        return f.append_column("dl", dl)

    pairs = ds.map_batches(q_pairs, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None) \
        .materialize()   # consumed twice: df fold + scoring

    # corpus total token count: one scalar-partial pass
    def len_partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        s = int(pc.sum(pc.list_value_length(toks)).as_py() or 0)
        return pa.table({"s": pa.array([s], pa.int64())})

    total_tokens = 0
    for b in ds.map_batches(len_partial, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None) \
            .iter_batches(batch_size=65536, batch_format="pyarrow"):
        total_tokens += int(pc.sum(b["s"]).as_py() or 0)
    # identical double expression both sides
    avgdl = float(total_tokens) / float(n_docs)

    # ((N - df) + 0.5) / (df + 0.5): int subtraction first, then the
    # double promotions — mirrored verbatim
    idf = {tok: int(np.floor(1000.0 * np.log(
        ((n_docs - int(dfv)) + 0.5) / (int(dfv) + 0.5))))
           for tok, dfv in _doc_freqs(pairs)}

    def score_cols(batch: pa.Table) -> pa.Table:
        tok = batch["token"].to_pylist()
        tf = batch["tf"].to_numpy().astype(np.float64)
        dl = batch["dl"].to_numpy().astype(np.float64)
        iv = np.array([idf[t] for t in tok], dtype=np.float64)
        # expression order shared with the SQL mirror:
        # (idf * (tf * (k1+1))) / (tf + k1 * ((1-b) + b * (dl/avgdl)))
        num = iv * (tf * (BM25_K1 + 1.0))
        den = tf + BM25_K1 * ((1.0 - BM25_B)
                              + BM25_B * (dl / avgdl))
        sc = np.floor(num / den).astype(np.int64)
        t = pa.table({"doc_id": batch["doc_id"],
                      "score_milli": pa.array(sc)})
        return t

    scored = aggregate(
        pairs.map_batches(score_cols, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        "doc_id", {"score_milli": ("score_milli", "sum")},
        {"doc_id": pa.int64(), "score_milli": pa.int64()})

    def topk_part(batch: pa.Table) -> pa.Table:
        idx = pc.sort_indices(batch, sort_keys=[
            ("score_milli", "descending"), ("doc_id", "ascending")])
        return batch.take(idx[:SEARCH_TOPK])

    def finish(batch: pa.Table) -> pa.Table:
        t = topk_part(batch)
        return t.append_column("rk", pa.array(
            np.arange(1, len(t) + 1, dtype=np.int64)))

    return scored.map_batches(topk_part, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(finish, batch_format="pyarrow", batch_size=None)


WINSOR_LO = 0.05
WINSOR_HI = 0.95


def winsorize_stats(ds):
    """Per-language winsorized length statistics: the p05/p95
    thresholds (ceil(q*n)-th smallest, the house quantile convention)
    and the count + sum of lengths CLIPPED to [p05, p95] — the
    outlier-robust moments a quality-filter pipeline feeds on.  One
    keyed-histogram pass (lang x distinct lengths, never rows); the
    thresholds AND the clipped sum both fold from the same histogram
    on the driver — clipping is a pure value remap of histogram keys,
    so no second scan."""
    import math

    import ray.data as rd

    def cols(batch: pa.Table) -> pa.Table:
        return pa.table({"lang": batch["lang"], "L": batch["n_chars"]})

    hist = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["lang", "L"], {"n": ("lang", "count")},
        {"lang": pa.string(), "L": pa.int64(), "n": pa.int64()})

    lang, L, n = _lang_hist(hist)
    if not len(lang):
        return rd.from_arrow(pa.table(
            {"lang": pa.array([], pa.string()),
             "p_lo": pa.array([], pa.int64()),
             "p_hi": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64()),
             "sum_clipped": pa.array([], pa.int64())}))
    out = {"lang": [], "p_lo": [], "p_hi": [], "n": [],
           "sum_clipped": []}
    for lg in sorted(set(lang.tolist())):
        m = lang == lg
        Li, ni = L[m], n[m]
        order = np.argsort(Li)
        Li, ni = Li[order], ni[order]
        cum = np.cumsum(ni)
        total = int(cum[-1])
        lo = int(Li[np.searchsorted(cum, math.ceil(WINSOR_LO * total))])
        hi = int(Li[np.searchsorted(cum, math.ceil(WINSOR_HI * total))])
        clipped = np.clip(Li, lo, hi)
        out["lang"].append(lg)
        out["p_lo"].append(lo)
        out["p_hi"].append(hi)
        out["n"].append(total)
        out["sum_clipped"].append(int((clipped * ni).sum()))
    return rd.from_arrow(pa.table(
        {"lang": pa.array(out["lang"], pa.string()),
         **{k: pa.array(out[k], pa.int64())
            for k in out if k != "lang"}}))


PIVOT_LANGS = ("de", "en", "es", "fr", "zh")


def pivot_counts(ds):
    """Wide pivot (conditional aggregation): one row per source with a
    doc-count column per language plus the total — the cross-tab /
    one-hot-rollup pattern.  Each batch emits ONE row per source (the
    lang dimension is folded into fixed columns map-side), so the
    shuffle is bounded by #sources x #batches, never rows.  Languages
    outside PIVOT_LANGS count toward n_total only (mirrors the SQL
    CASE WHEN)."""

    def one_hot(batch: pa.Table) -> pa.Table:
        cols = {"source": batch["source"]}
        for lg in PIVOT_LANGS:
            cols[f"n_{lg}"] = pc.cast(pc.equal(batch["lang"], lg),
                                      pa.int64())
        return pa.table(cols)

    names = [f"n_{lg}" for lg in PIVOT_LANGS]
    return aggregate(
        ds.map_batches(one_hot, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "source", {**{c: (c, "sum") for c in names},
                   "n_total": ("source", "count")},
        {"source": pa.string(),
         **{c: pa.int64() for c in names + ["n_total"]}})


REDACT_PATTERN = r"\b(key|customer|value)\b"   # stand-in PII term list
REDACT_TOKEN = "<PII>"


def redact_pii(ds):
    """PII-style regex redaction: replace every term-list match with a
    sentinel token and count the hits per document — the
    scrub-before-training stage of a webtext pipeline.  Pure
    ``map_batches`` over Arrow string kernels
    (``replace_substring_regex`` / ``count_substring_regex``, both
    RE2 — the same engine DuckDB uses, so redacted text is
    byte-identical to the oracle): zero shuffle, zero driver state,
    embarrassingly parallel at any corpus size.  The term list here is
    a deterministic stand-in for an email/phone/SSN pattern set (the
    synthetic corpus has no digits); swapping patterns changes one
    constant."""

    def scrub(batch: pa.Table) -> pa.Table:
        txt = batch["text"]
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_hits": pc.cast(
                pc.count_substring_regex(txt, pattern=REDACT_PATTERN),
                pa.int64()),
            "text": pc.replace_substring_regex(
                txt, pattern=REDACT_PATTERN,
                replacement=REDACT_TOKEN)})

    return ds.map_batches(scrub, batch_format="pyarrow",
                          zero_copy_batch=True)


def url_dedup(ds):
    """URL canonicalization + exact dedup: every page URL appears in
    three crawl-variant forms (tracking query string, fragment anchor,
    uppercased host with a trailing slash); canonicalization (strip
    ``[?#].*``, strip the trailing slash, lowercase) collapses them
    and an exact groupby keeps the smallest doc_id per canonical URL —
    the crawl-frontier dedup stage of a webtext pipeline.  All string
    work is Arrow RE2/utf8 kernels; the map-side partial collapses a
    doc's variants before the shuffle, so the exchange carries ~1 row
    per distinct URL per batch, never the 3x variant stream."""

    def variants(batch: pa.Table) -> pa.Table:
        url = batch["url"]
        d = batch["doc_id"].to_numpy()
        v0 = pc.binary_join_element_wise(
            url, pa.scalar("?utm_source="),
            pa.array((d % 7).astype(str)), "")
        v1 = pc.binary_join_element_wise(
            url, pa.scalar("#section-"),
            pa.array((d % 5).astype(str)), "")
        v2 = pc.binary_join_element_wise(
            pc.utf8_upper(url), pa.scalar("/"), "")
        u = pa.concat_arrays(
            [x.combine_chunks() if isinstance(x, pa.ChunkedArray)
             else x for x in (v0, v1, v2)])
        did3 = pa.array(np.concatenate([d, d, d]))
        canon = pc.utf8_lower(pc.replace_substring_regex(
            pc.replace_substring_regex(u, pattern=r"[?#].*$",
                                       replacement=""),
            pattern=r"/$", replacement=""))
        return pa.table({"url": canon, "doc_id": did3,
                         "n_variants": pa.array(
                             np.ones(len(canon), np.int64))})

    return aggregate(
        ds.map_batches(variants, batch_format="pyarrow",
                       zero_copy_batch=True),
        "url", {"doc_id": ("doc_id", "min"),
                "n_variants": ("n_variants", "sum")},
        {"url": pa.string(), "doc_id": pa.int64(), "n_variants": pa.int64()})


ROLLUP_MAX_GROUPS = 65_536  # driver-fold bound for the grain table
ROLLUP_ALL = "<all>"        # sentinel for the rolled-up dimension


def rollup_counts(ds):
    """Multi-level aggregate — GROUP BY ROLLUP(source, lang): counts
    and char sums at the (source, lang) grain, per source, and grand
    total, in ONE pass.  Only the finest grain ever shuffles (map-side
    partials -> one groupby); the two coarser levels are derived from
    the <= |sources| x |langs| grain table in a bounded driver fold
    (loud ValueError past ROLLUP_MAX_GROUPS — rolling up a
    free-cardinality key pair needs a second distributed groupby, not
    a silent driver OOM)."""
    import pandas as pd
    import ray.data as rd

    def cols(batch: pa.Table) -> pa.Table:
        return pa.table({"source": batch["source"], "lang": batch["lang"],
                         "n": pa.array(np.ones(len(batch), np.int64)),
                         "sum_chars": batch["n_chars"]})

    grain = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["source", "lang"], {"n": ("n", "sum"),
                             "sum_chars": ("sum_chars", "sum")},
        {"source": pa.string(), "lang": pa.string(), "n": pa.int64(),
         "sum_chars": pa.int64()})

    g = collect(grain, pa.schema([
        ("source", pa.string()), ("lang", pa.string()),
        ("n", pa.int64()), ("sum_chars", pa.int64())]), ROLLUP_MAX_GROUPS)
    if g is None:
        raise ValueError(
            f"rollup_counts grain exceeds {ROLLUP_MAX_GROUPS} "
            "groups; use a distributed second groupby instead")
    g = g.to_pandas()
    by_src = g.groupby("source", as_index=False).agg(
        n=("n", "sum"), sum_chars=("sum_chars", "sum"))
    by_src["lang"] = ROLLUP_ALL
    tot = pd.DataFrame({"source": [ROLLUP_ALL], "lang": [ROLLUP_ALL],
                        "n": [g["n"].sum()],
                        "sum_chars": [g["sum_chars"].sum()]})
    out = pd.concat([g, by_src[["source", "lang", "n", "sum_chars"]],
                     tot], ignore_index=True)
    out["n"] = out["n"].astype(np.int64)
    out["sum_chars"] = out["sum_chars"].astype(np.int64)
    # keep the registry contract: every query returns a Dataset
    return rd.from_pandas(out)


ARGMAX_CHARS_BITS = 40      # doc_id field width in the packed key


def argmax_doc(ds):
    """Per-(lang, source) argmax ROW retrieval: the longest document
    (ties: smallest doc_id) with its length — arg_max as a MERGEABLE
    aggregate via an order-preserving packed int64
    (n_chars << 40 | ~doc_id), so batches emit one packed max per
    group and a single groupby Max finishes it; the row is recovered
    by unpacking, never by a join-back.  Guards: n_chars < 2^22,
    doc_id < 2^40 (raises loudly past the packing range)."""

    B = ARGMAX_CHARS_BITS
    MASK = (1 << B) - 1

    def partial(batch: pa.Table) -> pa.Table:
        nc = batch["n_chars"].to_numpy()
        did = batch["doc_id"].to_numpy()
        if len(nc) and (nc.max() >= 1 << 22 or did.max() >= 1 << B
                        or nc.min() < 0 or did.min() < 0):
            raise ValueError("argmax_doc packing range exceeded "
                             "(n_chars >= 2^22 or doc_id >= 2^40)")
        packed = (nc << B) | (MASK - did)
        return pa.table({"lang": batch["lang"], "source": batch["source"],
                         "pk": pa.array(packed)})

    agg = aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["lang", "source"], {"pk": ("pk", "max")},
        {"lang": pa.string(), "source": pa.string(), "pk": pa.int64()})

    def unpack(batch: pa.Table) -> pa.Table:
        pk = batch["pk"].to_numpy()
        return pa.table({"lang": batch["lang"],
                         "source": batch["source"],
                         "doc_id": pa.array(MASK - (pk & MASK)),
                         "n_chars": pa.array(pk >> B)})

    return agg.map_batches(unpack, batch_format="pyarrow",
                           zero_copy_batch=True)


MODE_MAX_LANGS = 10_000     # driver-fold bound for the per-lang max table


def mode_word(ds):
    """Per-language MODE over the token stream: the most frequent
    token, ties broken by smallest token string — the grouped
    arg-max-with-string-payload that the packed-int trick (argmax_doc)
    canNOT express.  Three key-bounded rounds instead of a vocab-sized
    map_groups: (1) map-side partial (lang, token) counts + groupby
    Sum — the word_count shuffle; (2) per-lang max count (aggregate,
    #langs rows, driver-folded under MODE_MAX_LANGS with a loud bail);
    (3) broadcast the max table and filter count == max(lang), then a
    tiny min-token groupby over the tied survivors only."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        n = pc.list_value_length(toks).to_numpy()
        lang = pa.array(np.repeat(batch["lang"].to_numpy(
            zero_copy_only=False), n))
        return pa.table({"lang": lang, "token": pc.list_flatten(toks),
                         "c": pa.array(np.ones(int(n.sum()), np.int64))})

    counts = aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["lang", "token"], {"n": ("c", "sum")},
        {"lang": pa.string(), "token": pa.string(), "n": pa.int64()})

    mx_tbl = _fold_rows(
        aggregate(
            counts,
            "lang", {"mx": ("n", "max")},
            {"lang": pa.string(), "mx": pa.int64()}),
        pa.schema([("lang", pa.string()), ("mx", pa.int64())]),
        MODE_MAX_LANGS, "mode_word", "lang count").sort_by("lang")
    langs = np.array(mx_tbl["lang"].to_pylist())
    mx_ref = ray.put((langs, mx_tbl["mx"].to_numpy()))

    def keep_tied(batch: pa.Table) -> pa.Table:
        lg, mv = ray.get(mx_ref)
        ln = batch["lang"].to_numpy(zero_copy_only=False)
        # vectorized lookup: counts is vocab-scale, no per-row Python
        tgt = mv[np.searchsorted(lg, ln)]
        return batch.filter(pa.array(
            batch["n"].to_numpy() == tgt))

    def min_token(g: "pd.DataFrame"):
        g = g.sort_values("token", kind="stable")
        return g.iloc[:1][["lang", "token", "n"]]

    return counts.map_batches(keep_tied, batch_format="pyarrow",
                              zero_copy_batch=True) \
        .groupby("lang").map_groups(min_token, batch_format="pandas")


VOCAB_BUCKET_BYTES = 2      # prefix bytes -> at most 65536 range keys


def _byte_prefix_key(tokens: pa.ChunkedArray) -> np.ndarray:
    """Order-preserving int key from a string column: the first two
    UTF-8 bytes, zero-padded (token x <= y in byte order implies
    key(x) <= key(y)) — extracted from the Arrow binary buffers, no
    per-token Python."""
    out = []
    arr = tokens.combine_chunks() if isinstance(
        tokens, pa.ChunkedArray) else tokens
    chunks = arr.chunks if isinstance(arr, pa.ChunkedArray) else [arr]
    for ch in chunks:
        b = ch.cast(pa.binary())
        off = np.frombuffer(b.buffers()[1], np.int32,
                            len(b) + 1, b.offset * 4)
        data = np.frombuffer(b.buffers()[2], np.uint8)
        ln = np.diff(off)
        k = np.zeros(len(b), np.int64)
        has1 = ln >= 1
        k[has1] = data[off[:-1][has1]].astype(np.int64) << 8
        has2 = ln >= 2
        k[has2] |= data[off[:-1][has2] + 1]
        out.append(k)
    return np.concatenate(out) if out else np.zeros(0, np.int64)


def vocab_ids(ds):
    """Vocabulary construction with DENSE GLOBAL IDS: every distinct
    token gets token_id = its 0-based rank in byte order — the
    dictionary-building step of a training pipeline, WITHOUT a global
    sort: (1) map-side distinct + one groupby-distinct shuffle,
    (2) per-range counts over an order-preserving 2-byte prefix key
    (<= 65536 ranges, the only driver-side state) -> broadcast
    exclusive cumsum, (3) a per-partition kernel (ranges co-located by
    the pure-function key hash) sorts its tokens by UTF-8 bytes and
    adds the range offset — the pack_sequences scan pattern over
    strings."""
    import ray
    import ray.data as rd

    def distinct_part(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(batch["text"], " "))
        return pa.table({"token": toks.unique()})

    vocab = aggregate(
        ds.map_batches(distinct_part, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "token", {}, {"token": pa.string()})

    def keyed(batch: pa.Table) -> pa.Table:
        return pa.table({
            "token": batch["token"],
            "rkey": pa.array(_byte_prefix_key(batch["token"]))})

    kv = vocab.map_batches(keyed, batch_format="pyarrow")

    def range_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["rkey"]).append_column(
            "c", pa.array(np.ones(len(batch), np.int64)))

    t = collect(aggregate(
        kv.map_batches(range_cols, batch_format="pyarrow",
                       batch_size=None),
        "rkey", {"c": ("c", "sum")},
        {"rkey": pa.int64(), "c": pa.int64()}),
                pa.schema([("rkey", pa.int64()), ("c", pa.int64())]))
    if not t.num_rows:
        return rd.from_arrow(pa.table({
            "token": pa.array([], pa.string()),
            "token_id": pa.array([], pa.int64())}))
    rk = t["rkey"].to_numpy()
    c = t["c"].to_numpy()
    order = np.argsort(rk)
    rk, c = rk[order], c[order]
    offs = np.concatenate([[0], np.cumsum(c)[:-1]])
    state = ray.put((rk, offs))

    def rank_part(g: pa.Table) -> pa.Table:
        rkeys, offsets = ray.get(state)
        # Arrow orders strings by their UTF-8 bytes
        g = g.sort_by([("rkey", "ascending"), ("token", "ascending")])
        r = g["rkey"].to_numpy()
        starts, sizes = runs(r)
        local = np.arange(len(g)) - np.repeat(starts, sizes)
        base = offsets[np.searchsorted(rkeys, r[starts])]
        ids = np.repeat(base, sizes) + local
        return g.append_column("token_id", pa.array(ids))

    return partitioned(kv, "rkey", rank_part,
                       {"token": pa.string(), "token_id": pa.int64()},
                       rows_hint=int(c.sum()))


JACCARD_MAX_SOURCES = 64    # per-token source-set bound (pair kernel)


def source_jaccard(ds):
    """Pairwise vocabulary Jaccard similarity between SOURCES — the
    group-similarity matrix behind source-level dedup triage.  Never
    an all-pairs join on rows: (1) one distinct shuffle to the
    (token, source) set, (2) per-token source-set pairs generated in a
    kernel bounded by JACCARD_MAX_SOURCES per token (sources are a
    bounded dimension; raises loudly past it), (3) a key-bounded pair
    Sum, and (4) a broadcast per-source vocab-size table folds the
    union term — jaccard = inter / (va + vb - inter), same expression
    tree as the SQL mirror."""
    import ray

    def distinct_part(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        n = pc.list_value_length(toks).to_numpy()
        src = pa.array(np.repeat(
            batch["source"].to_numpy(zero_copy_only=False), n))
        t = pa.table({"token": pc.list_flatten(toks), "source": src})
        return t

    ts = aggregate(
        ds.map_batches(distinct_part, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["token", "source"], {},
        {"token": pa.string(), "source": pa.string()})

    def add_rkey(batch: pa.Table) -> pa.Table:
        return pa.table({
            "token": batch["token"], "source": batch["source"],
            "rkey": pa.array(_byte_prefix_key(batch["token"]))})

    kv = ts.map_batches(add_rkey, batch_format="pyarrow")

    size_schema = pa.schema([("source", pa.string()), ("n", pa.int64())])
    sizes = _fold_rows(aggregate(kv, "source", {"n": ("source", "count")},
                                 size_schema),
                       size_schema, MODE_MAX_LANGS, "source_jaccard",
                       "source count")
    vsize = dict(zip(sizes["source"].to_pylist(),
                     sizes["n"].to_pylist()))
    vref = ray.put(vsize)

    def pairs_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("token", "ascending"), ("source", "ascending")])
        starts, seg = runs(g["token"].to_numpy())
        if len(seg) and seg.max() > JACCARD_MAX_SOURCES:
            raise ValueError("source_jaccard: a token appears in more "
                             f"than {JACCARD_MAX_SOURCES} sources")
        i, j = run_pairs(starts, seg)
        src = g["source"]
        return pa.table({"sa": src.take(i), "sb": src.take(j)})

    inter = aggregate(
        partitioned(kv, "rkey", pairs_part,
                    {"sa": pa.string(), "sb": pa.string()},
                    rows_hint=sum(vsize.values()) or 1),
        ["sa", "sb"], {"n_inter": ("sa", "count")},
        {"sa": pa.string(), "sb": pa.string(), "n_inter": pa.int64()})

    def finish(batch: pa.Table) -> pa.Table:
        vs = ray.get(vref)
        sa = batch["sa"].to_numpy(zero_copy_only=False)
        sb = batch["sb"].to_numpy(zero_copy_only=False)
        inter_n = batch["n_inter"].to_numpy()
        va = np.array([vs[x] for x in sa], np.int64)
        vb = np.array([vs[x] for x in sb], np.int64)
        union = va + vb - inter_n
        return pa.table({
            "sa": batch["sa"], "sb": batch["sb"],
            "n_inter": batch["n_inter"],
            "n_union": pa.array(union),
            "jaccard": pa.array(inter_n.astype(np.float64)
                                / union.astype(np.float64))})

    return inter.map_batches(finish, batch_format="pyarrow",
                             zero_copy_batch=True)


def src_token_tf(batch: pa.Table) -> pa.Table:
    """Tokenize + pre-aggregate to (source, token, tf) — doc_token_tf's
    shape keyed by the SOURCE column (corpus-mix analysis)."""
    toks = pc.split_pattern(batch["text"], " ")
    n = pc.list_value_length(toks).to_numpy()
    flat = pa.table({
        "source": pa.array(np.repeat(
            batch["source"].to_numpy(zero_copy_only=False), n)),
        "token": pc.list_flatten(toks),
    })
    g = flat.group_by(["source", "token"]).aggregate([([], "count_all")])
    return pa.table({"source": g["source"], "token": g["token"],
                     "tf": pc.cast(g["count_all"], pa.int64())})


def kl_by_source(ds):
    """Per-source KL divergence of the source's token distribution
    against the whole-corpus distribution, as the integer milli-nat
    NUMERATOR sum_t c_st * floor(1000*ln((c_st*n)/(c_t*n_s)))
    (divide by n_tokens for the per-token KL; the division is left to
    the caller so the result stays integer-exact and
    order-independent) — the corpus-mix drift signal: a source whose
    vocabulary diverges from the corpus scores high.

    Shape (unigram_surprisal's, keyed by source): pre-aggregated
    (source, token, tf) rows -> one groupby to exact per-(source,
    token) counts; global token counts and per-source totals DERIVED
    from that table (vocab-bounded, no second tokenize pass); one
    token hash join; integer term sum per source.  The per-source
    totals map is a driver-side fold over <= |sources| rows,
    broadcast into the term kernel."""
    import ray

    from .relational import join_partitions_for

    pairs = ds.map_batches(src_token_tf, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    cst = aggregate(
        pairs,
        ["source", "token"], {"c_st": ("tf", "sum")},
        {"source": pa.string(), "token": pa.string(), "c_st": pa.int64()}).materialize()

    ct = aggregate(
        cst,
        "token", {"c_t": ("c_st", "sum")},
        {"token": pa.string(), "c_t": pa.int64()})

    # per-source totals as a DISTRIBUTED map-side-partial groupby (the
    # driver sees <= |sources| aggregate rows, never the (source,
    # token) table itself)
    t = collect(aggregate(
        cst,
        "source", {"n_s": ("c_st", "sum")},
        {"source": pa.string(), "n_s": pa.int64()}),
                pa.schema([("source", pa.string()), ("n_s", pa.int64())]))
    ns = dict(zip(t["source"].to_pylist(), t["n_s"].to_pylist()))
    total = sum(ns.values())
    ns_ref = ray.put(ns)

    # join sized by the DISTINCT pair count (cst is materialized, so
    # the count is free) — total token occurrences would over-partition
    # by the corpus repetition factor
    j = cst.join(ct, join_type="inner",
                 num_partitions=join_partitions_for(cst.count()),
                 on=("token",))

    def term(batch: pa.Table) -> pa.Table:
        ns_map = ray.get(ns_ref)
        src = batch["source"].to_pylist()
        c_st = batch["c_st"].to_numpy().astype(np.float64)
        c_t = batch["c_t"].to_numpy().astype(np.float64)
        n_s = np.array([ns_map[s] for s in src], dtype=np.float64)
        arg = (c_st * float(total)) / (c_t * n_s)
        t_milli = np.floor(1000.0 * np.log(arg)).astype(np.int64)
        return pa.table({
            "source": batch["source"],
            "kl": pa.array(batch["c_st"].to_numpy() * t_milli),
            "tf": batch["c_st"]})

    return aggregate(
        j.map_batches(term, batch_format="pyarrow",
                      zero_copy_batch=True),
        "source", {"kl_numer_milli": ("kl", "sum"), "n_tokens": ("tf", "sum")},
        {"source": pa.string(), "kl_numer_milli": pa.int64(),
         "n_tokens": pa.int64()})


DSIR_TARGET_LANG = "en"   # target-corpus selector for the oracle


def dsir_weights(ds, target_lang: str = DSIR_TARGET_LANG):
    """DSIR-style importance weights (Xie et al. '23, public): score
    each document by the add-1-smoothed log-likelihood ratio of its
    unigrams under the TARGET corpus (``lang == target_lang``) vs the
    RAW corpus (all documents) — the data-selection signal for
    importance resampling toward a target distribution.

    Integer contract (shared with the SQL mirror): per-token term is
    ``floor(1000 * ln(((c_tgt+1)*(N_raw+V)) / ((c_raw+1)*(N_tgt+V))))``
    (same IEEE expression order both sides; the floor-quantized
    milli-nat scheme proven hash-stable by kl_by_source); per-document
    weight is the int64 sum of terms over token OCCURRENCES.

    Shape: one tokenize pass -> vocab-bounded (token, c_tgt, c_raw)
    aggregate; the scalar totals (N_tgt, N_raw, V) fold from that
    table; the term table joins back to a second tokenize pass on the
    token hash — both passes stream, nothing doc-sized reaches the
    driver.  The term table is vocab-bounded, so the join side stays
    small at any corpus size (hot-token skew is absorbed by the join's
    hash exchange, not a broadcast).

    Returns (doc_id, w_milli, n_tokens)."""

    from .relational import join_partitions_for

    def tok_rows(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        idx = pc.list_parent_indices(toks)
        is_t = pc.equal(batch["lang"], target_lang)
        return pa.table({
            "doc_id": batch["doc_id"].take(idx),
            "tok": pc.list_flatten(toks),
            "tgt": pc.cast(is_t, pa.int64()).take(idx)})

    toks = ds.map_batches(tok_rows, batch_format="pyarrow",
                          zero_copy_batch=True)
    cnt = aggregate(
        toks,
        "tok", {"c_tgt": ("tgt", "sum"), "c_raw": ("tok", "count")},
        {"tok": pa.string(), "c_tgt": pa.int64(), "c_raw": pa.int64()}) \
        .materialize()

    # scalar totals: three ints folded from vocab-bounded partials
    n_tgt = n_raw = v = 0
    for b in cnt.iter_batches(batch_size=65536,
                              batch_format="pyarrow"):
        n_tgt += int(pc.sum(b["c_tgt"]).as_py() or 0)
        n_raw += int(pc.sum(b["c_raw"]).as_py() or 0)
        v += b.num_rows

    def term(batch: pa.Table) -> pa.Table:
        ct = batch["c_tgt"].to_numpy().astype(np.float64)
        ca = batch["c_raw"].to_numpy().astype(np.float64)
        arg = ((ct + 1.0) * float(n_raw + v)) \
            / ((ca + 1.0) * float(n_tgt + v))
        w = np.floor(1000.0 * np.log(arg)).astype(np.int64)
        return pa.table({"tok": batch["tok"], "w": pa.array(w)})

    terms = cnt.map_batches(term, batch_format="pyarrow",
                            zero_copy_batch=True)
    # sized by the OCCURRENCE volume (n_raw), not the vocab: the left
    # side of the join is the full token stream, 100-1000x the vocab
    j = toks.select_columns(["doc_id", "tok"]).join(
        terms, join_type="inner",
        num_partitions=join_partitions_for(n_raw), on=("tok",))

    def doc_partial(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy()
        w = batch["w"].to_numpy()
        u, inv = np.unique(d, return_inverse=True)
        s = np.zeros(len(u), dtype=np.int64)
        n = np.zeros(len(u), dtype=np.int64)
        np.add.at(s, inv, w)
        np.add.at(n, inv, 1)
        return pa.table({"doc_id": pa.array(u.astype(np.int64)),
                         "ws": pa.array(s), "nt": pa.array(n)})

    return aggregate(
        j.map_batches(doc_partial, batch_format="pyarrow",
                      zero_copy_batch=True),
        "doc_id", {"w_milli": ("ws", "sum"), "n_tokens": ("nt", "sum")},
        {"doc_id": pa.int64(), "w_milli": pa.int64(), "n_tokens": pa.int64()})


KEEP_BROADCAST_IDS = 5_000_000   # winner-id broadcast bound (rows)


def llm_prep(sf_dir: str, q: float = 0.5, chunk_tokens: int = 32,
             overlap: int = 8):
    """Composite LLM training-data prep: exact dedup -> global quality
    floor -> context-window chunking, as one streaming chain of the
    proven library stages (dedup.exact_dedup winners,
    length_histogram's ceil-quantile threshold, chunk_docs) — the
    end-to-end corpus-prep pipeline a user would actually run.

    Scale shape: only the WINNER ID SET leaves the dedup stage
    (broadcast sorted-array probe under KEEP_BROADCAST_IDS, native
    hash semi-join above it); the quality threshold is the
    histogram-sketch scalar (shuffle bounded by distinct lengths);
    chunking is batch-local.  The kept-docs lineage executes twice
    (histogram pass + chunk pass) by design: re-reading pruned parquet
    plus an id probe is cheaper at corpus scale than pinning the whole
    text column in the object store."""
    import math

    import ray
    import ray.data as rd

    from .dedup import exact_dedup
    from .relational import _parquet_rows, join_partitions_for

    path = f"{sf_dir}/documents.parquet"
    docs = read_table(path, ["doc_id", "text"])
    winners = exact_dedup(docs).select_columns(["doc_id"])

    n_docs = _parquet_rows(path)
    if n_docs <= KEEP_BROADCAST_IDS:
        ids = np.sort(collect(winners, pa.schema(
            [("doc_id", pa.int64())]))["doc_id"].to_numpy())
        ref = ray.put(ids)

        def keep_winners(batch: pa.Table) -> pa.Table:
            k = ray.get(ref)
            kk = batch["doc_id"].to_numpy()
            if not len(k):
                return batch.slice(0, 0)
            pos = np.minimum(np.searchsorted(k, kk), len(k) - 1)
            return batch.filter(pa.array(k[pos] == kk))

        def kept():
            return docs.map_batches(keep_winners,
                                    batch_format="pyarrow",
                                    zero_copy_batch=True)
    else:
        def kept():
            return docs.join(
                winners, join_type="inner",
                num_partitions=join_partitions_for(n_docs),
                on=("doc_id",))

    L, cnt = length_histogram(kept())
    if not len(L):
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "chunk_id": pa.array([], pa.int64()),
            "n_chunk_tokens": pa.array([], pa.int64()),
            "chunk_text": pa.array([], pa.string())}))
    cum = np.cumsum(cnt)
    thr = int(L[np.searchsorted(cum, math.ceil(q * int(cum[-1])))])

    def quality_floor(batch: pa.Table) -> pa.Table:
        ln = pc.cast(pc.utf8_length(batch["text"]), pa.int64())
        return batch.filter(pc.greater_equal(ln, thr))

    filt = kept().map_batches(quality_floor, batch_format="pyarrow",
                              zero_copy_batch=True)
    return chunk_docs(filt, chunk_tokens, overlap)


def ttr_stats(sf_dir: str):
    """Per-document lexical diversity: token count, distinct-token
    count, and the type-token ratio in integer permille (the corpus
    quality signal next to length/punct ratios in quality_filter).

    Scale shape: ZERO shuffle — tokens never leave the batch.  Each
    batch flattens its token lists once, collapses (row, token) pairs
    with one batch-local Arrow group_by (each row is one document, so
    distinctness is row-local by construction), and emits one output
    row per document.  The ratio is integer permille (d * 1000 // n)
    so the distributed result is bitwise-stable vs the SQL mirror.

    Tokenization matches word_count_topk: split on single spaces, so
    an empty text yields the single empty token ([''] on both the
    Arrow and the DuckDB side) and n_tokens >= 1 always holds."""

    ds = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        n_tok = pc.cast(pc.list_value_length(toks),
                        pa.int64()).to_numpy()
        pairs = pa.table({
            "i": pc.list_parent_indices(toks),
            "tok": pc.list_flatten(toks)}) \
            .group_by(["i", "tok"]).aggregate([])
        vc = pairs["i"].combine_chunks().value_counts()
        n_dist = np.zeros(batch.num_rows, np.int64)
        n_dist[vc.field("values").to_numpy()] = \
            vc.field("counts").to_numpy()
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tok),
            "n_distinct": pa.array(n_dist),
            "ttr_permille": pa.array(n_dist * 1000 // n_tok)})

    return ds.map_batches(stats, batch_format="pyarrow",
                          zero_copy_batch=True)


# ---------------------------------------------------------------------------
# gopher_rules — composite quality-rule screen (Gopher-style bitmask)
# ---------------------------------------------------------------------------

# Integer-exact rule thresholds, adapted to the synth corpus's feature
# ranges (tokens 10..99, mean token length 3.7..5.1) so each rule has
# both passing and failing documents at every sf.  Real-web values
# (Rae et al. 2021, "Scaling Language Models: ... Gopher", table A1)
# would be n_tok in [50, 100000], mean length in [3, 10], etc. — the
# MACHINERY (cross-multiplied integer predicates, one bitmask pass,
# zero shuffle) is the deliverable; thresholds are config.
GOPHER_MIN_TOKENS = 25        # R0 (bit 1): too short
GOPHER_MAX_CHARS = 450        # R1 (bit 2): too long
GOPHER_MEAN_LEN_LO = 40       # R2 (bit 4): 10*mean_tok_len < 40  (i.e. <4.0)
GOPHER_MEAN_LEN_HI = 49       # R2 (bit 4): 10*mean_tok_len > 49  (i.e. >4.9)
GOPHER_TOP_TF_PCT = 15        # R3 (bit 8): top token > 15% of tokens
GOPHER_TTR_PERMILLE = 450     # R4 (bit 16): distinct/total < 0.45


def gopher_rules(ds):
    """Composite quality-rule screen: per-document bitmask over five
    Gopher-style repetition/length rules + the keep verdict — the
    standard web-corpus pre-training filter stage (each rule is a
    cross-multiplied INTEGER predicate, so the mask is hash-exact).

    Bits: 1 too-few-tokens | 2 too-many-chars | 4 mean token length
    outside [4.0, 4.9] | 8 top-token share > 15% | 16 type-token
    ratio < 0.45.

    Scale shape: ZERO shuffle — tokens never leave the batch; each
    batch does one Arrow split + one batch-local (row, token) group_by
    (rows are documents, so tf/distinct are row-local), then numpy
    scatter-max.  Output is one row per document.
    """
    def screen(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        n = batch.num_rows
        n_chars = pc.cast(pc.utf8_length(text), pa.int64()).to_numpy()
        toks = pc.split_pattern(text, " ")
        n_tok = pc.cast(pc.list_value_length(toks),
                        pa.int64()).to_numpy()
        tf = pa.table({"i": pc.list_parent_indices(toks),
                       "tok": pc.list_flatten(toks)}) \
            .group_by(["i", "tok"]).aggregate([([], "count_all")])
        ti = tf["i"].to_numpy()
        tc = tf["count_all"].to_numpy().astype(np.int64)
        max_tf = np.zeros(n, np.int64)
        np.maximum.at(max_tf, ti, tc)
        n_dist = np.bincount(ti, minlength=n).astype(np.int64)

        sum_len = n_chars - (n_tok - 1)     # token chars = chars - spaces
        mask = np.where(n_tok < GOPHER_MIN_TOKENS, 1, 0)
        mask += np.where(n_chars > GOPHER_MAX_CHARS, 2, 0)
        mask += np.where((10 * sum_len < GOPHER_MEAN_LEN_LO * n_tok)
                         | (10 * sum_len > GOPHER_MEAN_LEN_HI * n_tok),
                         4, 0)
        mask += np.where(100 * max_tf > GOPHER_TOP_TF_PCT * n_tok, 8, 0)
        mask += np.where(1000 * n_dist < GOPHER_TTR_PERMILLE * n_tok,
                         16, 0)
        return pa.table({
            "doc_id": batch["doc_id"],
            "rule_mask": pa.array(mask.astype(np.int64)),
            "keep": pa.array((mask == 0).astype(np.int64))})

    return ds.map_batches(screen, batch_format="pyarrow",
                          zero_copy_batch=True)


def ngram_repetition(ds):
    """Gopher-style n-gram repetition signals (Rae et al. '21 §A1.1,
    public spec) per document, integer-exact:

    - ``top2_milli``: permille of the document's characters covered by
      occurrences of its most frequent word 2-gram (count x gram char
      length, gram length counted as rendered: token chars + 1 space).
      Ties break to the lexicographically smallest gram (ORDER BY tf
      DESC, gram — shared with the SQL mirror).
    - ``dup3_milli``: permille of characters covered by word 3-grams
      occurring at least twice (sum of count x gram length over the
      duplicated grams).

    Both are ``1000 * covered_chars // n_chars`` (floor), so hashes are
    exact.  Scale shape: ZERO shuffle — n-grams never leave the batch
    (rows are whole documents); one Arrow split + join_element_wise +
    batch-local group_by per n, then numpy scatter reductions.
    Documents shorter than n tokens emit 0."""
    def screen(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        text = batch["text"]
        n_chars = pc.cast(pc.utf8_length(text), pa.int64()).to_numpy()
        toks = pc.split_pattern(text, " ")
        parent = pc.list_parent_indices(toks).to_numpy()
        flat = pc.list_flatten(toks)

        def gram_stats(k: int):
            """Per-document k-gram table: (doc index, count, rendered
            char length) arrays over distinct k-grams."""
            empty = np.array([], np.int64)
            if len(parent) < k:
                return empty, empty, empty
            m = len(parent) - (k - 1)
            same = np.ones(m, dtype=bool)
            for j in range(1, k):
                same &= parent[j:m + j] == parent[:m]
            idx = np.flatnonzero(same)
            if not len(idx):
                return empty, empty, empty
            # last arg of binary_join_element_wise is the SEPARATOR
            pieces = [flat.take(pa.array(idx + j)) for j in range(k)]
            grams = pc.binary_join_element_wise(*pieces, " ")
            t = pa.table({"i": pa.array(parent[idx]), "g": grams}) \
                .group_by(["i", "g"]).aggregate([([], "count_all")]) \
                .sort_by([("i", "ascending"),
                          ("count_all", "descending"),
                          ("g", "ascending")])
            return (t["i"].to_numpy(),
                    t["count_all"].to_numpy().astype(np.int64),
                    pc.cast(pc.utf8_length(t["g"]),
                            pa.int64()).to_numpy())

        # top 2-gram coverage: first row per doc after the
        # (count desc, gram asc) sort — mirror: ORDER BY tf DESC, gram
        top2 = np.zeros(n, np.int64)
        g2i, g2c, g2l = gram_stats(2)
        if len(g2i):
            first = np.ones(len(g2i), dtype=bool)
            first[1:] = g2i[1:] != g2i[:-1]
            top2[g2i[first]] = (g2c * g2l)[first]
        # duplicated 3-gram coverage: count >= 2 grams, count x length
        dup3 = np.zeros(n, np.int64)
        g3i, g3c, g3l = gram_stats(3)
        if len(g3i):
            d = g3c >= 2
            np.add.at(dup3, g3i[d], (g3c * g3l)[d])
        return pa.table({"doc_id": batch["doc_id"],
                         "top2_milli": pa.array(
                             np.where(n_chars > 0,
                                      1000 * top2 // np.maximum(
                                          n_chars, 1), 0)),
                         "dup3_milli": pa.array(
                             np.where(n_chars > 0,
                                      1000 * dup3 // np.maximum(
                                          n_chars, 1), 0))})

    return ds.map_batches(screen, batch_format="pyarrow",
                          zero_copy_batch=True)


def benford(ds):
    """Benford's-law first-digit profile per source — the classic
    forensic screen for fabricated numeric columns (here the document
    length ``n_chars``): observed count per (source, leading digit)
    plus the integer-quantized Benford expectation ``exp_milli =
    floor(1000 * log10(1 + 1/d))`` so the deviation is derivable
    downstream without a float reduction crossing the engine/oracle
    boundary.

    Scale shape: leading digit extracted by vectorized integer
    repeated-division (≤19 halvings for int64, no string formatting,
    no float log), map-side (source, digit) partial counts, one
    digit-grid-bounded groupby.  Rows with ``n_chars < 1`` are
    excluded (no leading digit)."""

    def cols(batch: pa.Table) -> pa.Table:
        x = batch["n_chars"].to_numpy().astype(np.int64)
        d = x[x >= 1].copy()
        while (d >= 10).any():
            np.floor_divide(d, 10, out=d, where=d >= 10)
        return pa.table({
               "source": pc.array_filter(batch["source"],
                                         pa.array(x >= 1)),
               "digit": pa.array(d)})

    hist = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["source", "digit"], {"n": ("source", "count")},
        {"source": pa.string(), "digit": pa.int64(), "n": pa.int64()})

    def expect(batch: pa.Table) -> pa.Table:
        d = batch["digit"].to_numpy().astype(np.float64)
        e = np.floor(1000.0 * np.log10(1.0 + 1.0 / d)).astype(np.int64)
        return batch.append_column("exp_milli", pa.array(e))

    return hist.map_batches(expect, batch_format="pyarrow",
                            zero_copy_batch=True)


def chi2_contingency(ds):
    """lang × source contingency table with the EXACT integer
    chi-square component per cell: ``comp_micro =
    floor(10^6 * (O*N - R*C)^2 / (R*C*N))`` where O is the cell count,
    R/C the row/column marginals and N the grand total — the
    independence screen for "does this source's language mix diverge
    from the corpus?".  Arbitrary-precision Python ints in the final
    cell kernel (the products overflow int64 beyond ~5 K rows), so the
    result is exact at any corpus size; the oracle mirrors it with
    DuckDB HUGEINT floor division.

    Scale shape: map-side (lang, source) partial counts, one
    cell-bounded groupby, marginals folded on the driver over the
    distinct-cell table (bounded by |langs|×|sources|, NOT corpus
    size)."""
    import ray.data as rd

    def cols(batch: pa.Table) -> pa.Table:
        return batch.select(["lang", "source"])

    agg = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["lang", "source"], {"o": ("lang", "count")},
        {"lang": pa.string(), "source": pa.string(), "o": pa.int64()})
    # distinct-(lang, source)-bounded driver fold; hard-guard the
    # bound like the other bounded collects (dedup drop-set, kmeans
    # centroid fold) so a pathological high-cardinality source column
    # fails loudly instead of OOMing the driver
    CHI2_MAX_CELLS = 5_000_000
    cells = agg.limit(CHI2_MAX_CELLS + 1).take_all()
    if len(cells) > CHI2_MAX_CELLS:
        raise ValueError(
            "chi2_contingency: > {:,} distinct (lang, source) cells — "
            "the driver fold bound; bucket one key first".format(
                CHI2_MAX_CELLS))
    if not cells:
        empty = pa.array([], pa.int64())
        return rd.from_arrow(pa.table({
            "lang": pa.array([], pa.string()),
            "source": pa.array([], pa.string()),
            "o": empty, "r_tot": empty, "c_tot": empty,
            "n_tot": empty, "comp_micro": empty}))
    r_tot: dict[str, int] = {}
    c_tot: dict[str, int] = {}
    n_tot = 0
    for row in cells:
        o = int(row["o"])
        r_tot[row["lang"]] = r_tot.get(row["lang"], 0) + o
        c_tot[row["source"]] = c_tot.get(row["source"], 0) + o
        n_tot += o
    out = {"lang": [], "source": [], "o": [], "r_tot": [], "c_tot": [],
           "n_tot": [], "comp_micro": []}
    for row in cells:
        o, r, c = int(row["o"]), r_tot[row["lang"]], c_tot[row["source"]]
        dev = o * n_tot - r * c           # Python ints: exact
        out["lang"].append(row["lang"])
        out["source"].append(row["source"])
        out["o"].append(o)
        out["r_tot"].append(r)
        out["c_tot"].append(c)
        out["n_tot"].append(n_tot)
        out["comp_micro"].append(dev * dev * 10**6 // (r * c * n_tot))
    return rd.from_arrow(pa.table({
        "lang": pa.array(out["lang"], pa.string()),
        "source": pa.array(out["source"], pa.string()),
        "o": pa.array(out["o"], pa.int64()),
        "r_tot": pa.array(out["r_tot"], pa.int64()),
        "c_tot": pa.array(out["c_tot"], pa.int64()),
        "n_tot": pa.array(out["n_tot"], pa.int64()),
        "comp_micro": pa.array(out["comp_micro"], pa.int64())}))


def heaps_law(ds, n_docs: int | None = None):
    """Heaps'-law vocabulary-growth curve: V(t) = number of distinct
    tokens whose FIRST occurrence lies in the first t documents (by
    doc_id), sampled on the geometric grid t ∈ {min(2^k, n_docs)} —
    the standard diagnostic for "how fast does the vocabulary grow as
    the corpus grows" (sub-linear for natural text, near-linear for
    noise/boilerplate).

    Scale shape: (doc, token, tf) pre-aggregated rows -> map-side
    per-token MIN(doc_id) partials -> one vocab-bounded groupby ->
    per-batch bincount against the broadcast ~64-entry grid -> one
    grid-bounded Sum.  The raw token stream never shuffles; nothing
    corpus-sized reaches the driver."""
    import ray.data as rd

    if n_docs is None:
        n_docs = int(ds.count())
    if n_docs <= 0:
        e = pa.array([], pa.int64())
        return rd.from_arrow(pa.table({"n_docs": e, "vocab": e}))
    grid: list[int] = []
    k = 1
    while k < n_docs:
        grid.append(k)
        k *= 2
    grid.append(n_docs)
    garr = np.asarray(grid, dtype=np.int64)

    tokens = ds.map_batches(doc_token_tf, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)

    def min_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["token", "doc_id"])

    first = aggregate(
        tokens.map_batches(min_cols, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None),
        "token", {"fd": ("doc_id", "min")},
        {"token": pa.string(), "fd": pa.int64()})

    def grid_cols(batch: pa.Table) -> pa.Table:
        fd = batch["fd"].to_numpy().astype(np.int64)
        # v[j] = # tokens with fd < grid[j]
        v = np.searchsorted(np.sort(fd), garr, side="left")
        return pa.table({"n_docs": pa.array(garr),
                         "vocab": pa.array(v.astype(np.int64))})

    return aggregate(
        first.map_batches(grid_cols, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        "n_docs", {"vocab": ("vocab", "sum")},
        {"n_docs": pa.int64(), "vocab": pa.int64()})


# ---------------------------------------------------------------------------
# Content-defined chunking (CDC) duplicate-span table
# ---------------------------------------------------------------------------

CDC_DIV = 16          # expected chunk length in tokens (boundary rate)
CDC_MIN_OCCUR = 2     # report chunks seen at least this many times


def cdc_chunks(ds, div: int = CDC_DIV, min_occur: int = CDC_MIN_OCCUR):
    """Content-defined chunking over the token stream — the
    variable-length counterpart of fixed-window ``chunk_docs``: a chunk
    boundary falls AFTER token ``i`` wherever the token-3-gram rolling
    hash (the exact ``_token_hashes`` shingle expression, so the SQL
    mirror is free) is ``0 mod div``.  Because boundaries depend only
    on local content, an insertion early in a page shifts at most one
    chunk — the property that makes CDC the standard primitive for
    byte-/span-level dedup of crawl snapshots (fixed windows would
    re-chunk the whole tail).

    Emits the global duplicate-span table: one row per (chunk_sum,
    chunk_len) content key occurring >= ``min_occur`` times, with the
    distinct-document count.  Chunk identity is (sum of token hashes
    mod M, token count) — order-independent by construction, computed
    identically on both engines.

    Scale shape: chunking is batch-local; per-batch partials pre-group
    the (key -> occurrences, distinct docs) counts (docs never span
    batches, so batch-local distinct is globally exact) and ONLY the
    bounded partial rows hit the one groupby shuffle."""

    from .dedup import MERSENNE, _hash_tokens

    M = MERSENNE

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        sums, lens, docs = [], [], []
        for d, t in zip(ids.tolist(), texts):
            th = _hash_tokens(t.split(" "))
            ck = _cdc_chunk_ids(th, div)
            n_chunks = int(ck[-1]) + 1 if len(th) else 0
            cs = np.zeros(n_chunks, dtype=np.int64)
            np.add.at(cs, ck, th)
            sums.append(cs % M)
            lens.append(np.bincount(ck, minlength=n_chunks)
                        .astype(np.int64))
            docs.append(np.full(n_chunks, d, dtype=np.int64))
        if not sums:
            return pa.table({"chunk_sum": pa.array([], pa.int64()),
                             "chunk_len": pa.array([], pa.int64()),
                             "occ": pa.array([], pa.int64()),
                             "docs": pa.array([], pa.int64())})
        cs = np.concatenate(sums)
        cl = np.concatenate(lens)
        dd = np.concatenate(docs)
        key = np.stack([cs, cl], axis=1)
        u, inv = np.unique(key, axis=0, return_inverse=True)
        occ = np.bincount(inv).astype(np.int64)
        # distinct docs per key: unique (key, doc) rows first
        kd = np.stack([cs, cl, dd], axis=1)
        ukd = np.unique(kd, axis=0)
        ukey = np.stack([ukd[:, 0], ukd[:, 1]], axis=1)
        # map each unique (key, doc) row back to its key slot
        order = np.lexsort((u[:, 1], u[:, 0]))
        su = u[order]
        pos = np.searchsorted(
            su[:, 0] * (1 << 32) + su[:, 1],
            ukey[:, 0] * (1 << 32) + ukey[:, 1])
        nd = np.zeros(len(u), dtype=np.int64)
        np.add.at(nd, order[pos], 1)
        return pa.table({"chunk_sum": pa.array(u[:, 0]),
                         "chunk_len": pa.array(u[:, 1]),
                         "occ": pa.array(occ),
                         "docs": pa.array(nd)})

    partials = ds.select_columns(["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None)
    agg = aggregate(
        partials,
        ["chunk_sum", "chunk_len"], {"n_occur": ("occ", "sum"),
         "n_docs": ("docs", "sum")},
        {"chunk_sum": pa.int64(), "chunk_len": pa.int64(),
         "n_occur": pa.int64(), "n_docs": pa.int64()})

    def finish(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch["n_occur"], min_occur)
        t = batch.filter(keep)
        return pa.table({
            "chunk_sum": t["chunk_sum"], "chunk_len": t["chunk_len"],
            "n_docs": pc.cast(t["n_docs"], pa.int64()),
            "n_occur": pc.cast(t["n_occur"], pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def _cdc_chunk_ids(th: np.ndarray, div: int) -> np.ndarray:
    """Chunk id per token position for CDC boundaries (boundary AFTER
    token i where the 3-gram rolling hash is 0 mod div) — the single
    implementation both :func:`cdc_chunks` and :func:`span_dedup` use,
    so their chunkings agree by construction."""
    from .dedup import MERSENNE, SH_C1, SH_C2, SH_C3

    M = MERSENNE
    bf = np.zeros(len(th), dtype=np.int64)
    if len(th) >= 3:
        sh = (th[:-2] * SH_C1 % M + th[1:-1] * SH_C2 % M
              + th[2:] * SH_C3 % M) % M
        bf[2:] = sh % div == 0
    ck = np.zeros(len(th), dtype=np.int64)
    if len(th) > 1:
        ck[1:] = np.cumsum(bf)[:-1]  # exclusive prefix sum
    return ck


_SPAN_CK_BITS = 20  # chunks per doc bound (chunk_dedup packing)


def span_dedup(ds, div: int = CDC_DIV, rows_hint: int | None = None):
    """Duplicated-span REMOVAL — the text-rewrite end product of CDC
    chunking (cf. chunk_dedup's fixed windows): every content-defined
    chunk keeps exactly ONE canonical occurrence corpus-wide (min
    (doc_id, chunk_index)); all other occurrences are cut out of their
    documents.  This is the boilerplate-stripping step a crawl
    pipeline runs between exact dedup and quality filtering: repeated
    navigation/footer spans vanish while unique prose survives.

    Stages (all shuffles carry short ints; text crosses the wire only
    in the final rewrite join):
    1. chunk instances (doc_id, ck, csum, clen, wkey=doc_id<<20|ck)
       via the shared :func:`_cdc_chunk_ids` chunking;
    2. winner per content key: groupby (csum, clen) -> Min(wkey);
    3. kept instances: instances x winners hash join, wkey == winner;
    4. per-doc kept-chunk set: hash-partitioned pack to sorted int64
       bytes (one row per doc);
    5. rewrite: docs x kept-set join; the kernel re-derives the
       deterministic chunking and keeps the tokens of kept chunks.
       Docs that keep NOTHING (pure boilerplate) come back with
       text_clean = '' via a left_anti union, so the output has
       exactly one row per input doc.

    Returns (doc_id, text_clean)."""

    from .dedup import MERSENNE, _hash_tokens
    from .relational import join_partitions_for

    M = MERSENNE
    docs = ds.select_columns(["doc_id", "text"])
    n = rows_hint if rows_hint is not None else docs.count()

    def inst(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        od, ock, osum, olen = [], [], [], []
        for d, t in zip(ids.tolist(), texts):
            th = _hash_tokens(t.split(" "))
            ck = _cdc_chunk_ids(th, div)
            n_chunks = int(ck[-1]) + 1 if len(th) else 0
            assert n_chunks < (1 << _SPAN_CK_BITS), "chunks >= 2^20"
            assert d < (1 << 43), "doc_id >= 2^43"
            cs = np.zeros(n_chunks, dtype=np.int64)
            np.add.at(cs, ck, th)
            od.append(np.full(n_chunks, d, dtype=np.int64))
            ock.append(np.arange(n_chunks, dtype=np.int64))
            osum.append(cs % M)
            olen.append(np.bincount(ck, minlength=n_chunks)
                        .astype(np.int64))
        if not od:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "ck": pa.array([], pa.int64()),
                             "csum": pa.array([], pa.int64()),
                             "clen": pa.array([], pa.int64()),
                             "wkey": pa.array([], pa.int64())})
        d = np.concatenate(od)
        c = np.concatenate(ock)
        return pa.table({
            "doc_id": pa.array(d), "ck": pa.array(c),
            "csum": pa.array(np.concatenate(osum)),
            "clen": pa.array(np.concatenate(olen)),
            "wkey": pa.array((d << _SPAN_CK_BITS) | c)})

    def instances():
        return docs.map_batches(inst, batch_format="pyarrow",
                                zero_copy_batch=True)

    winners = aggregate(
        instances(),
        ["csum", "clen"], {"w": ("wkey", "min")},
        {"csum": pa.int64(), "clen": pa.int64(), "w": pa.int64()})

    jp = join_partitions_for(n)
    j = instances().join(winners, join_type="inner",
                         num_partitions=jp, on=("csum", "clen"))

    def keep_rows(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["wkey"], batch["w"]))
        return pa.table({"doc_id": t["doc_id"], "ck": t["ck"]})

    kept = j.map_batches(keep_rows, batch_format="pyarrow",
                         zero_copy_batch=True)

    def pack_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("doc_id", "ascending"), ("ck", "ascending")])
        d = g["doc_id"].to_numpy()
        c = g["ck"].to_numpy()
        new = np.ones(len(g), dtype=bool)
        new[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(g))
        return pa.table({
            "doc_id": d[starts],
            "ckb": pa.array([c[s:e].tobytes() for s, e in
                             zip(starts.tolist(), ends.tolist())],
                            pa.binary())})

    ckb = partitioned(kept, "doc_id", pack_part,
                      {"doc_id": pa.int64(), "ckb": pa.binary()},
                      rows_hint=n).materialize()

    jd = docs.join(ckb, join_type="inner", num_partitions=jp,
                   on=("doc_id",))

    def rewrite(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        ckbs = batch["ckb"].to_pylist()
        out = []
        for t, cb in zip(texts, ckbs):
            toks = t.split(" ")
            th = _hash_tokens(toks)
            ck = _cdc_chunk_ids(th, div)
            keep = np.isin(ck, np.frombuffer(cb, dtype=np.int64))
            out.append(" ".join(tk for tk, k in
                                zip(toks, keep.tolist()) if k))
        return pa.table({"doc_id": pa.array(ids),
                         "text_clean": pa.array(out, pa.string())})

    rewritten = jd.map_batches(rewrite, batch_format="pyarrow",
                               zero_copy_batch=True)

    # docs that kept nothing: one empty row each (left_anti union)
    lost = docs.select_columns(["doc_id"]).join(
        ckb, join_type="left_anti", num_partitions=jp, on=("doc_id",))

    def blank(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "text_clean": pa.array([""] * len(batch), pa.string())})

    return rewritten.union(lost.map_batches(
        blank, batch_format="pyarrow", zero_copy_batch=True))


# ---------------------------------------------------------------------------
# Corpus-wide boilerplate scoring
# ---------------------------------------------------------------------------

BOILER_MIN_DF = 6              # shingle is boilerplate when df >= this
BOILER_BROADCAST_CAP = 5_000_000   # hot-set ids; dedup_apply's bound


def boiler_score(ds, min_df: int = BOILER_MIN_DF,
                 broadcast_cap: int = BOILER_BROADCAST_CAP,
                 rows_hint: int | None = None):
    """Per-document BOILERPLATE fraction against the corpus-wide
    hot-shingle set — the template/navigation-chrome signal a crawl
    pipeline feeds its quality filter (CCNet-style: content repeated
    across many pages is chrome, not prose).

    A shingle is boilerplate when its document frequency (count of
    DISTINCT docs containing it) >= ``min_df``.  Output per doc:
    ``n_sh`` distinct shingles, ``n_boiler`` of them boilerplate, and
    ``boiler_milli = 1000 * n_boiler // n_sh``.

    Scale shape:
    - pass A builds the df table with per-batch partials (each doc's
      shingles are already distinct), one groupby(sh) Sum — the only
      all-to-all, on 8-byte keys;
    - the hot SET (df >= min_df) is tiny by construction (real
      boilerplate is a vocabulary-sized head, not the corpus) — under
      ``broadcast_cap`` it is collected once and broadcast via
      ray.put, and pass B re-derives each doc's shingles batch-locally
      and probes the sorted array (np.isin) — zero further shuffles;
    - above the cap the probe becomes a distributed semi-join of the
      exploded (doc_id, sh) rows against the hot df table plus a
      per-doc count groupby, same outputs.
    """
    import ray

    from .dedup import _token_hashes

    docs = ds.select_columns(["doc_id", "text"])

    def shingles(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.table({"sh": pa.array(
            np.concatenate([_token_hashes(t) for t in texts])
            if texts else [], pa.int64())})

    df = aggregate(
        docs.map_batches(shingles, batch_format="pyarrow",
                         zero_copy_batch=True),
        "sh", {"df": ("sh", "count")},
        {"sh": pa.int64(), "df": pa.int64()})
    def keep_hot(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater_equal(batch["df"],
                                          pa.scalar(int(min_df))))
        return t.select(["sh"])

    hot_ds = df.map_batches(keep_hot, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    # volume probe: count the hot set before deciding the path
    n_hot = hot_ds.count()

    if n_hot <= broadcast_cap:
        hot = np.sort(collect(hot_ds, pa.schema(
            [("sh", pa.int64())]))["sh"].to_numpy())
        hot_ref = ray.put(hot)

        def score(batch: pa.Table) -> pa.Table:
            hs = ray.get(hot_ref)
            ids = batch["doc_id"].to_numpy()
            texts = batch["text"].to_pylist()
            n_sh = np.empty(len(ids), dtype=np.int64)
            n_b = np.empty(len(ids), dtype=np.int64)
            for i, t in enumerate(texts):
                sh = _token_hashes(t)
                n_sh[i] = len(sh)
                n_b[i] = int(np.isin(sh, hs, assume_unique=True).sum())
            return pa.table({
                "doc_id": pa.array(ids),
                "n_sh": pa.array(n_sh),
                "n_boiler": pa.array(n_b),
                "boiler_milli": pa.array(
                    1000 * n_b // np.maximum(n_sh, 1))})

        return docs.map_batches(score, batch_format="pyarrow",
                                zero_copy_batch=True)

    # distributed fallback: explode (doc_id, sh), semi-join the hot df
    # table, per-doc counts via groupby Sum on both legs
    from .relational import join_partitions_for

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        od, osh = [], []
        for d, t in zip(ids.tolist(), texts):
            sh = _token_hashes(t)
            od.append(np.full(len(sh), d, dtype=np.int64))
            osh.append(sh)
        if not od:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "sh": pa.array([], pa.int64())})
        return pa.table({"doc_id": pa.array(np.concatenate(od)),
                         "sh": pa.array(np.concatenate(osh))})

    n = rows_hint if rows_hint is not None else docs.count()
    rows = docs.map_batches(explode, batch_format="pyarrow",
                            zero_copy_batch=True)

    totals = aggregate(rows, "doc_id", {"n_sh": ("doc_id", "count")},
                       {"doc_id": pa.int64(), "n_sh": pa.int64()})

    jp = join_partitions_for(max(n, n_hot))
    hits = rows.join(hot_ds, join_type="inner", num_partitions=jp,
                     on=("sh",))
    bcounts = aggregate(hits, "doc_id", {"n_boiler": ("doc_id", "count")},
                        {"doc_id": pa.int64(), "n_boiler": pa.int64()})

    j = totals.join(bcounts, join_type="left_outer",
                    num_partitions=join_partitions_for(n),
                    on=("doc_id",))

    def finish(batch: pa.Table) -> pa.Table:
        n_sh = batch["n_sh"].to_numpy()
        nb = batch["n_boiler"].to_numpy(zero_copy_only=False)
        nb = np.where(np.isnan(nb.astype(np.float64)), 0, nb) \
            .astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_sh": pa.array(n_sh),
            "n_boiler": pa.array(nb),
            "boiler_milli": pa.array(1000 * nb // np.maximum(n_sh, 1))})

    return j.map_batches(finish, batch_format="pyarrow")
