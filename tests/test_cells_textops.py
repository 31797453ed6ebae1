"""Tests: S2 cell encoder properties, hex cells, text operators."""

import numpy as np
import pyarrow as pa
import pytest

from geo_inference_ray import synth
from geo_inference_ray.cells import (S2_LEVEL, hex_cell, s2_cell, s2_level_of,
                                     s2_parent)
from geo_inference_ray.textops import (LANG_ORDER, Fingerprint, LangId,
                                       quality_score, token_count)


def test_s2_deterministic_and_level():
    lat = np.array([0.0, 45.0, -30.5, 89.0, -89.0, 10.0])
    lon = np.array([0.0, 90.0, -120.25, 179.0, -179.0, 0.01])
    c1 = s2_cell(lat, lon)
    c2 = s2_cell(lat, lon)
    assert (c1 == c2).all()
    assert (s2_level_of(c1) == S2_LEVEL).all()


def test_s2_locality():
    """Nearby points usually share the level-12 cell; far points never."""
    lat = np.array([10.0, 10.00001, 50.0])
    lon = np.array([20.0, 20.00001, -60.0])
    c = s2_cell(lat, lon)
    assert c[0] == c[1]
    assert c[0] != c[2]


def test_s2_face_coverage():
    """All 6 faces reachable."""
    lat = np.array([0.0, 0.0, 85.0, 0.0, 0.0, -85.0])
    lon = np.array([0.0, 90.0, 0.0, 180.0, -90.0, 0.0])
    c = s2_cell(lat, lon)
    faces = (c >> np.uint64(61)).astype(int)
    assert sorted(set(faces.tolist())) == [0, 1, 2, 3, 4, 5]


def test_s2_parent_hierarchy():
    lat = np.array([10.0, -45.0, 71.2])
    lon = np.array([20.0, 3.0, -12.5])
    c12 = s2_cell(lat, lon, 12)
    c7 = s2_cell(lat, lon, 7)
    assert (s2_parent(c12, 7) == c7).all()
    assert (s2_level_of(c7) == 7).all()


def _s2_cell_per_bit(lat_deg, lon_deg, level):
    """The per-face, per-bit form of ``s2_cell``: one masked division
    per face, one Hilbert step per level.  Reference for the lookup
    table walk."""
    from geo_inference_ray.cells import (_IJ_TO_POS, _MAX_LEVEL,
                                         _POS_TO_ORIENTATION, _latlon_to_xyz,
                                         _uv_to_st)

    x, y, z = _latlon_to_xyz(np.asarray(lat_deg, float),
                             np.asarray(lon_deg, float))
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(ax >= ay, np.where(ax >= az, 0, 2),
                    np.where(ay >= az, 1, 2))
    face = face + np.where(np.choose(face, [x, y, z]) < 0, 3, 0)
    u = np.empty_like(x)
    v = np.empty_like(x)
    for f, (ue, ve) in enumerate([
            (lambda: y / x, lambda: z / x),
            (lambda: -x / y, lambda: z / y),
            (lambda: -x / z, lambda: -y / z),
            (lambda: z / x, lambda: y / x),
            (lambda: z / y, lambda: -x / y),
            (lambda: -y / z, lambda: -x / z)]):
        m = face == f
        if m.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                u[m] = ue()[m]
                v[m] = ve()[m]
    n = 1 << level
    i = np.clip((_uv_to_st(u) * n).astype(np.int64), 0, n - 1)
    j = np.clip((_uv_to_st(v) * n).astype(np.int64), 0, n - 1)
    orientation = face & 1
    pos = np.zeros(len(x), dtype=np.uint64)
    for k in range(level - 1, -1, -1):
        p = _IJ_TO_POS[orientation, ((i >> k) & 1) * 2 + ((j >> k) & 1)]
        pos = (pos << np.uint64(2)) | p.astype(np.uint64)
        orientation = orientation ^ _POS_TO_ORIENTATION[p]
    shift = np.uint64(2 * (_MAX_LEVEL - level))
    return (face.astype(np.uint64) << np.uint64(61)) \
        | (pos << np.uint64(shift + np.uint64(1))) \
        | (np.uint64(1) << shift)


def test_s2_lookup_walk_matches_per_bit_walk():
    """The four-levels-per-step walk and the ``np.choose`` face frames
    give the per-bit walk's ids bit for bit, on random points and on
    the poles, the face edges and the antimeridian, at levels that are
    and are not a multiple of 4."""
    rng = np.random.default_rng(11)
    lat = np.concatenate([rng.uniform(-90, 90, 200_000),
                          [90.0, -90.0, 0.0, 0.0, 0.0, 0.0, 45.0, -45.0,
                           35.264389682754654, -35.264389682754654,
                           0.0, 0.0, 89.999999, -89.999999, 45.0]])
    lon = np.concatenate([rng.uniform(-180, 180, 200_000),
                          [0.0, 0.0, 45.0, 135.0, -45.0, -135.0, 90.0,
                           -90.0, 45.0, -135.0, 180.0, -180.0, 180.0,
                           -180.0, 180.0]])
    for level in (1, 7, 12, 30):
        got = s2_cell(lat, lon, level)
        want = _s2_cell_per_bit(lat, lon, level)
        assert got.dtype == want.dtype == np.uint64
        assert np.array_equal(got, want), level


def test_hex_ring1_offsets():
    """The 6 axial neighbors of (q, r) in packed-id space:
    (q±1, r) -> ±65536, (q, r±1) -> ±1, (q+1, r-1) -> +65535,
    (q-1, r+1) -> -65535."""
    from geo_inference_ray.knn import HEX_RING1_OFFSETS

    assert sorted(HEX_RING1_OFFSETS) == sorted(
        [0, 1, -1, 65536, -65536, 65535, -65535])
    c = hex_cell(np.array([10.0]), np.array([20.0]), 0.25)[0]
    assert len({c + o for o in HEX_RING1_OFFSETS}) == 7


def _doc_batch():
    return pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["the fast key", "a a a a", "spark vector batch"]),
    })


def test_token_count():
    out = token_count(_doc_batch())
    assert out["n_tokens"].to_pylist() == [3, 4, 3]


def test_quality_score_exact_ints():
    out = quality_score(_doc_batch())
    assert out["n_chars"].to_pylist() == [12, 7, 18]
    assert out["n_tokens"].to_pylist() == [3, 4, 3]
    # mean token length milli = (chars - spaces)*1000 // tokens
    assert out["mean_tok_len_milli"].to_pylist() == [
        (12 - 2) * 1000 // 3, (7 - 3) * 1000 // 4, (18 - 2) * 1000 // 3]


def test_langid_markers_and_ties():
    li = LangId()
    out = li(_doc_batch())
    # doc0 has 'the'(en), 'fast'(en), 'key'(en) -> en
    assert out["pred_lang"].to_pylist()[0] == "en"
    # doc1 'a a a a': overlapping ' a ' occurrences counted via
    # replace-delete semantics; still en (only en markers present)
    assert out["pred_lang"].to_pylist()[1] == "en"
    # doc2 all zh markers
    assert out["pred_lang"].to_pylist()[2] == "zh"
    # all-zero scores tie -> first in LANG_ORDER
    zero = li(pa.table({"doc_id": pa.array([9], pa.int64()),
                        "text": pa.array(["xyzzy plugh"])}))
    assert zero["pred_lang"].to_pylist() == [LANG_ORDER[0]]


def test_fingerprint_deterministic_and_distinct():
    fp = Fingerprint()
    a = fp(_doc_batch())["fingerprint"].to_pylist()
    b = fp(_doc_batch())["fingerprint"].to_pylist()
    assert a == b
    assert len(set(a)) == 3
    # order sensitivity (rolling, not bag-of-bytes)
    c = fp(pa.table({"doc_id": pa.array([0], pa.int64()),
                     "text": pa.array(["fast the key"])}))
    assert c["fingerprint"].to_pylist()[0] != a[0]


def test_pages_synth_roundtrip_invariant():
    """html wraps text; ExtractText recovers it byte-identically."""
    from geo_inference_ray.stages import ExtractText

    docs = pa.table({
        "doc_id": pa.array([7], pa.int64()),
        "text": pa.array(["weird <b>nested</b> & entities é"]),
        "lang": pa.array(["en"]), "source": pa.array(["srcX"]),
    })
    pages = synth.synth_pages_batch(docs)
    out = ExtractText()(pages)
    assert out["text"].to_pylist() == docs["text"].to_pylist()
    assert out["url"].to_pylist() == ["https://example.org/srcX/7"]


def _extract_regex_oracle(html):
    import pyarrow.compute as pc

    return pc.struct_field(pc.extract_regex(
        pc.cast(html, pa.string()), r"<p>(?P<t>(?s:.*))</p>"), "t")


def test_extract_text_matches_regex_oracle():
    """ExtractText's byte-offset kernel returns exactly what the regex
    ``<p>(?P<t>(?s:.*))</p>`` captures (first <p> to the last </p> after
    it, null when either is missing), on edge rows and seeded random
    rows, over whole, empty and sliced multi-chunk columns."""
    import random

    from geo_inference_ray.stages import ExtractText

    edge = [None, b"", b"no tags", b"<p>open only", b"close only</p>",
            b"</p><p>", b"<p></p><p>", b"<p><p>x</p></p>",
            b"a<p>b</p>c</p>d</p>e", b"<p>line\nbreak\r\n</p>\n",
            "\u00e9<p>\u00fc\u20ac\U0001f30d</p>\u00df".encode(),
            b"<p>", b"</p>", b"<p</p>", b"<p>/p>", b"</p><p></p>"]
    rng = random.Random(11)
    tokens = ["<p>", "</p>", "<", "p", ">", "/", "a", "\n", "\u00e9",
              "\U0001f30d"]
    fuzz = [None if rng.random() < 0.1 else "".join(
        rng.choice(tokens) for _ in range(rng.randrange(8))).encode()
        for _ in range(400)]
    rows = pa.array(edge + fuzz, pa.binary())
    # the last edge row matches and the two before it do not, so the
    # 3-row slice ending there holds one match at a non-zero offset
    one_match = len(edge) - 1
    columns = [
        pa.chunked_array([rows]),
        pa.chunked_array([], pa.binary()),
        pa.chunked_array([rows.slice(0, 0)]),
        pa.chunked_array([rows.slice(3, 7), rows.slice(one_match, 1),
                          rows.slice(one_match - 2, 3),
                          rows.slice(40, 200), rows.slice(0, 0)]),
    ]
    for html in columns:
        got = ExtractText()(pa.table({"html": html}))["text"]
        want = _extract_regex_oracle(html)
        assert got.type == pa.string()
        assert got.to_pylist() == want.to_pylist()
        for c in got.chunks:
            c.validate(full=True)

    with pytest.raises(pa.ArrowInvalid):
        ExtractText()(pa.table({"html": pa.array([b"<p>\xff</p>"])}))


def test_repetition_ratio_bounds():
    from geo_inference_ray.dedup import RepetitionRatio

    rr = RepetitionRatio()
    out = rr(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["a a a a a a a a",      # one distinct 3-gram
                          "q w e r t y u i"]),    # all-distinct 3-grams
    }))
    tot = out["n_shingles"].to_pylist()
    dis = out["n_distinct"].to_pylist()
    rep = out["rep_milli"].to_pylist()
    assert tot == [6, 6]
    assert dis == [1, 6]
    assert rep[0] == 1000 * 5 // 6 and rep[1] == 0


def test_source_stats_partial_aggregation(ray_session):
    import ray.data as rd

    from geo_inference_ray.textops import source_stats

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["one two", "three", "four five six"]),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["srcA", "srcB", "srcA"]),
    })
    pages = synth.synth_pages_batch(docs)
    out = source_stats(rd.from_arrow(pages)).to_pandas() \
        .sort_values("src").reset_index(drop=True)
    assert out["src"].tolist() == ["srcA", "srcB"]
    assert out["n_pages"].tolist() == [2, 1]
    assert out["total_tokens"].tolist() == [5, 1]
    assert out["total_chars"].tolist() == [7 + 13, 5]


def test_unigram_surprisal_ranks_rare_tokens(ray_session):
    import ray.data as rd

    from geo_inference_ray.textops import unigram_surprisal

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["the the the the", "the zyx qqq wvu"]),
    }))
    out = unigram_surprisal(docs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["n_tokens"].tolist() == [4, 4]
    # rare-token doc scores strictly higher
    assert out["surprisal_milli"][1] > out["surprisal_milli"][0]


def test_stratified_sample_k_per_stratum(ray_session, sf_dir):
    from geo_inference_ray.relational import stratified_sample

    out = stratified_sample(sf_dir, k=3).to_pandas()
    per = out.groupby("source").size()
    assert (per <= 3).all() and len(per) > 1
    assert (out["rnk"] >= 1).all() and (out["rnk"] <= 3).all()
    # deterministic across runs
    out2 = stratified_sample(sf_dir, k=3).to_pandas()
    a = out.sort_values(["source", "rnk"]).reset_index(drop=True)
    b = out2.sort_values(["source", "rnk"]).reset_index(drop=True)
    assert a.equals(b)


def test_surprisal_preagg_rows_are_distinct_pairs(ray_session):
    """VERDICT r2 item 4: the surprisal join input is one row per
    DISTINCT (doc, token) pair — on a repetition-heavy fixture the
    pre-aggregated volume is far below the occurrence count, and the
    tf-weighted result equals the per-occurrence oracle."""
    import duckdb
    import ray.data as rd

    from geo_inference_ray.textops import doc_token_tf, unigram_surprisal

    texts = ["spam " * 99 + "ham",            # 100 tokens, 2 distinct
             "ham " * 49 + "eggs",            # 50 tokens, 2 distinct
             "unique words only here"]        # 4 tokens, 4 distinct
    texts = [t.strip() for t in texts]
    docs = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                     "text": pa.array(texts)})
    pre = doc_token_tf(docs)
    assert pre.num_rows == 8  # distinct pairs, not 154 occurrences
    assert int(pa.compute.sum(pre["tf"]).as_py()) == 154

    ds = rd.from_arrow(docs)
    got = unigram_surprisal(ds).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("docs", docs)
    want = con.execute("""
        WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t
                     FROM docs),
        cnt AS (SELECT t, COUNT(*) AS c FROM tok GROUP BY t),
        tot AS (SELECT COUNT(*) AS n FROM tok)
        SELECT doc_id,
               CAST(SUM(CAST(floor(-1000.0 * ln(c / (SELECT CAST(n AS DOUBLE) FROM tot))) AS BIGINT)) AS BIGINT)
                 AS surprisal_milli,
               COUNT(*) AS n_tokens
        FROM tok JOIN cnt ON tok.t = cnt.t
        GROUP BY doc_id ORDER BY doc_id""").df()
    assert got["surprisal_milli"].tolist() == \
        want["surprisal_milli"].tolist()
    assert got["n_tokens"].tolist() == want["n_tokens"].tolist()


def test_asof_prior_anchor_semantics(ray_session, sf_dir):
    """Backward as-of join: strictly-prior anchors only, per-user,
    sentinel -1 when the event precedes every purchase (plain int64
    output contract — see asof_prior_anchor's docstring); pinned
    against a pandas reference built independently of merge_asof."""
    import pandas as pd

    from geo_inference_ray.relational import asof_prior_anchor

    got = asof_prior_anchor(sf_dir).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    ev = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts",
                                  "event_type"])
    assert len(got) == len(ev)
    anchors = ev[ev["event_type"] == "purchase"]
    by_user = {u: g.sort_values(["ts", "event_id"])
               for u, g in anchors.groupby("user_id")}
    sample = ev.sort_values("event_id").head(300)
    gm = got.set_index("event_id")
    for r in sample.itertuples():
        g = by_user.get(r.user_id)
        want = None
        if g is not None:
            prior = g[g["ts"] < r.ts]
            if len(prior):
                last = prior.iloc[-1]
                want = int(last["event_id"])
        have = gm.loc[r.event_id, "anchor_event_id"]
        if want is None:
            assert int(have) == -1
        else:
            assert int(have) == want
    assert got["anchor_event_id"].dtype == "int64"  # no nullable Int64


def test_anchor_window_follow_counts(ray_session, sf_dir):
    """Interval join via cumulative differencing == brute-force window
    count/sum for every signup anchor."""
    import numpy as np
    import pandas as pd

    from geo_inference_ray.relational import anchor_window_follow

    got = anchor_window_follow(sf_dir).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    ev = pd.read_parquet(f"{sf_dir}/events.parquet")
    w = np.timedelta64(60 * 60 * 10 ** 6, "us")
    anchors = ev[ev["event_type"] == "signup"]
    assert len(got) == len(anchors)
    gm = got.set_index("event_id")
    vm = np.round(ev["value"].to_numpy() * 1000.0).astype(np.int64)
    for r in anchors.head(200).itertuples():
        m = ((ev["user_id"] == r.user_id) & (ev["ts"] > r.ts)
             & (ev["ts"] <= r.ts + w)).to_numpy()
        assert int(gm.loc[r.event_id, "n_follow"]) == int(m.sum())
        assert int(gm.loc[r.event_id, "vm_follow"]) == int(vm[m].sum())


def test_ngram_topk_counts(ray_session):
    """Bigram counts respect document boundaries (no gram spans docs)
    and tie-break by (count desc, ngram asc)."""
    import ray.data as rd

    from geo_inference_ray.textops import ngram_topk

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["a b a b", "b a", "x"]),
    }))
    out = ngram_topk(docs, n=2, k=10).to_pandas()
    got = dict(zip(out["ngram"], out["n"]))
    # doc0: "a b","b a","a b"; doc1: "b a"; doc2 (1 token): none
    assert got == {"a b": 2, "b a": 2}
    # deterministic order: count desc, then ngram asc
    assert out["ngram"].tolist() == ["a b", "b a"]


def test_ngram_topk_trigrams(ray_session):
    import ray.data as rd

    from geo_inference_ray.textops import ngram_topk

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["p q r p q r", "q r"]),
    }))
    out = ngram_topk(docs, n=3, k=5).to_pandas()
    got = dict(zip(out["ngram"], out["n"]))
    assert got == {"p q r": 2, "q r p": 1, "r p q": 1}


def test_tfidf_topk_scores(ray_session):
    """tf-idf: a corpus-universal token scores 0 (ln 1); a doc-unique
    token scores tf * floor(1000*ln(N/1))."""
    import ray.data as rd

    from geo_inference_ray.textops import tfidf_topk

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["common rare rare", "common", "common",
                          "common"]),
    }))
    out = tfidf_topk(docs, n_docs=4, k=2).to_pandas() \
        .sort_values(["doc_id", "rk"]).reset_index(drop=True)
    d0 = out[out["doc_id"] == 0]
    assert d0["token"].tolist() == ["rare", "common"]
    # tf=2, idf = floor(1000*ln(4/1)) = 1386 -> 2772
    assert d0["score_milli"].tolist() == [2772, 0]
    assert (out[out["token"] == "common"]["score_milli"] == 0).all()
    # every doc has rank 1..k rows at most
    per = out.groupby("doc_id")["rk"].max()
    assert (per <= 2).all()


def test_dedup_apply_keeps_representatives(ray_session):
    """dedup_apply drops exactly the non-representative cluster members
    and passes non-text columns through; broadcast and left_anti paths
    agree."""
    import ray.data as rd

    from geo_inference_ray.dedup import dedup_apply

    # 6 docs: {0,1,2} identical, {4,5} identical, 3 unique
    texts = ["dup one text here alpha beta gamma delta"] * 3 + \
            ["totally different words entirely unique content row x"] + \
            ["second cluster text with other tokens zz yy xx ww"] * 2
    docs = pa.table({
        "doc_id": pa.array(list(range(6)), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 6),
        "source": pa.array([f"s{i}" for i in range(6)]),
    })
    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([0, 1, 4], pa.int64()),
        "doc_b": pa.array([1, 2, 5], pa.int64()),
    }))
    kept = dedup_apply(rd.from_arrow(docs), pairs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert kept["doc_id"].tolist() == [0, 3, 4]
    assert kept.columns.tolist() == ["doc_id", "lang", "source"]
    assert kept["source"].tolist() == ["s0", "s3", "s4"]
    # distributed anti-join path (force the threshold to 0)
    kept2 = dedup_apply(rd.from_arrow(docs), pairs,
                        drop_driver_limit=0).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert kept2["doc_id"].tolist() == [0, 3, 4]


def test_chunk_docs_overlap_semantics(ray_session):
    """Chunks stride by (chunk - overlap); consecutive chunks share
    `overlap` tokens; the tail chunk may be short but never empty."""
    import ray.data as rd

    from geo_inference_ray.textops import chunk_docs

    toks = [f"t{i}" for i in range(10)]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([7, 8], pa.int64()),
        "text": pa.array([" ".join(toks), "solo"]),
    }))
    out = chunk_docs(docs, chunk_tokens=4, overlap=2).to_pandas() \
        .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    d7 = out[out["doc_id"] == 7]
    # starts 0,2,4,6,8 -> 5 chunks; last = t8 t9
    assert d7["chunk_id"].tolist() == [0, 1, 2, 3, 4]
    assert d7["chunk_text"].iloc[0] == "t0 t1 t2 t3"
    assert d7["chunk_text"].iloc[1] == "t2 t3 t4 t5"
    assert d7["chunk_text"].iloc[4] == "t8 t9"
    assert d7["n_chunk_tokens"].tolist() == [4, 4, 4, 4, 2]
    d8 = out[out["doc_id"] == 8]
    assert d8["chunk_text"].tolist() == ["solo"]


def test_pack_sequences_multi_range_prefix_sum(ray_session):
    """The two-stage distributed exclusive prefix-sum equals the numpy
    scan when docs span many ranges (range_docs=8 forces 13 ranges)."""
    import ray.data as rd

    from geo_inference_ray.textops import pack_sequences

    rng = np.random.RandomState(7)
    n_docs = 100
    ntoks = rng.randint(1, 40, size=n_docs)
    texts = [" ".join(["w"] * k) for k in ntoks]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
        "text": pa.array(texts),
    }))
    out = pack_sequences(docs, seq_tokens=64, range_docs=8).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pre = np.cumsum(ntoks) - ntoks
    assert out["n_tokens"].tolist() == ntoks.tolist()
    assert out["pack_id"].tolist() == (pre // 64).tolist()
    # packs are contiguous monotone ids starting at 0
    assert out["pack_id"].iloc[0] == 0
    assert (np.diff(out["pack_id"].to_numpy()) >= 0).all()


def test_decontaminate_overlap_counts(ray_session):
    """Docs sharing trigrams with the benchmark set get the exact
    DISTINCT-trigram overlap count; disjoint docs get 0; benchmark
    docs are flagged."""
    import ray.data as rd

    from geo_inference_ray.textops import decontaminate

    # doc 0 is benchmark (0 % 97 == 0); doc 1 repeats a shared trigram
    # twice (must count ONCE); doc 2 disjoint; doc 3 shares two
    # distinct trigrams
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "a b c d e",              # bench grams: abc bcd cde
            "a b c x a b c",          # abc twice, "c x a"/"x a b" no
            "q r s t",                # disjoint
            "a b c d x c d e",        # abc, bcd... wait: see below
        ]),
    }))
    out = decontaminate(docs).to_pandas().set_index("doc_id")
    assert out.loc[0, "is_benchmark"] == 1
    assert (out.loc[[1, 2, 3], "is_benchmark"] == 0).all()
    # doc1: distinct trigrams {abc, bcx, cxa, xab} -> only abc shared
    assert out.loc[1, "n_overlap"] == 1
    assert out.loc[2, "n_overlap"] == 0
    # doc3 trigrams: abc bcd cdx dxc xcd cde -> shared {abc, bcd, cde}
    assert out.loc[3, "n_overlap"] == 3
    # benchmark doc overlaps itself fully (3 trigrams)
    assert out.loc[0, "n_overlap"] == 3


def test_chunk_dedup_first_occurrence_wins(ray_session):
    """Chunk-level dedup: an exact duplicate doc keeps 0 chunks; a doc
    sharing only its first 32-token chunk keeps the rest."""
    import ray.data as rd

    from geo_inference_ray.textops import chunk_dedup

    base = " ".join(f"t{i}" for i in range(64))        # 2 chunks
    tail = " ".join(f"u{i}" for i in range(32))
    shared_first = " ".join(f"t{i}" for i in range(32)) + " " + tail
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([10, 11, 12], pa.int64()),
        "text": pa.array([base, base, shared_first]),
    }))
    out = chunk_dedup(docs).to_pandas().set_index("doc_id")
    assert out.loc[10, "n_chunks"] == 2 and out.loc[10, "n_kept"] == 2
    assert out.loc[11, "n_chunks"] == 2 and out.loc[11, "n_kept"] == 0
    assert out.loc[12, "n_chunks"] == 2 and out.loc[12, "n_kept"] == 1


def test_quality_filter_exact_threshold(ray_session):
    """Threshold = ceil(q*n)-th smallest length, filter inclusive."""
    import ray.data as rd

    from geo_inference_ray.textops import quality_filter

    texts = ["x" * ln for ln in (10, 20, 30, 40, 50, 60, 70, 80, 90, 99)]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(10)), pa.int64()),
        "text": pa.array(texts),
    }))
    out = quality_filter(docs, q=0.9).to_pandas()
    # ceil(0.9 * 10) = 9th smallest = 90 -> keeps lengths 90, 99
    assert sorted(out["n_chars"]) == [90, 99]


def test_inverted_index_postings_sorted(ray_session):
    import ray.data as rd

    from geo_inference_ray.textops import inverted_index

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([5, 3, 9], pa.int64()),
        "text": pa.array(["w a w", "a b", "b a w"]),
    }))
    out = inverted_index(docs, rows_hint=9).to_pandas() \
        .set_index("token")
    assert out.loc["a", "df"] == 3
    assert out.loc["a", "postings"] == "3,5,9"   # sorted doc ids
    assert out.loc["w", "postings"] == "5,9"     # in-doc repeat folded
    assert out.loc["b", "df"] == 2


def test_train_shuffle_exact_shard_ranks(ray_session, sf_dir, duck):
    """Every shard's positions are exactly 1..shard_size and agree with
    the window-rank oracle."""
    from geo_inference_ray.relational import train_shuffle

    out = train_shuffle(sf_dir).to_pandas()
    for _, grp in out.groupby("shard"):
        assert sorted(grp["pos"]) == list(range(1, len(grp) + 1))
    ora = duck.execute("""
        WITH h AS (SELECT doc_id,
                   (doc_id % 2147483647 * 2654435761) % 2147483647 AS h
                   FROM documents)
        SELECT doc_id, h % 8 AS shard,
               ROW_NUMBER() OVER (PARTITION BY h % 8
                                  ORDER BY h, doc_id) AS pos
        FROM h""").fetchdf()
    m = out.sort_values("doc_id").reset_index(drop=True)
    o = ora.sort_values("doc_id").reset_index(drop=True)
    assert (m["shard"].to_numpy() == o["shard"].to_numpy()).all()
    assert (m["pos"].to_numpy() == o["pos"].to_numpy()).all()


def test_new_ops_empty_input(ray_session):
    """quality_filter / train-shuffle-style ops return typed empty
    results on an empty corpus instead of crashing (np.concatenate on
    an empty list was the round-2 ADVICE failure shape)."""
    import ray.data as rd

    from geo_inference_ray.textops import (chunk_dedup, decontaminate,
                                           quality_filter)

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string())}))
    assert quality_filter(empty).count() == 0
    assert decontaminate(empty).count() == 0
    assert chunk_dedup(empty).count() == 0


def test_funnel_strict_order_semantics(ray_session, tmp_path):
    """Hand-built event log: stage requires strictly-later events in
    step order; out-of-order clicks don't count."""
    import pandas as pd

    from geo_inference_ray.relational import funnel_stages

    t0 = pd.Timestamp("2024-01-01")
    s = pd.Timedelta(seconds=1)
    rows = [
        # user 1: full ordered funnel
        (1, t0, "view"), (1, t0 + s, "click"), (1, t0 + 2 * s, "purchase"),
        # user 2: click BEFORE the first view -> stage stops at 1
        (2, t0, "click"), (2, t0 + s, "view"),
        # user 3: purchase before click -> stage 2
        (3, t0, "view"), (3, t0 + s, "purchase"), (3, t0 + 2 * s, "click"),
        # user 4: only errors -> stage 0
        (4, t0, "error"),
        # user 5: click at EXACTLY the view time -> strict > fails
        (5, t0, "view"), (5, t0, "click"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    df["event_id"] = range(len(df))
    df["value"] = 0.0
    df["props"] = "{}"
    df.to_parquet(tmp_path / "events.parquet", index=False)
    out = funnel_stages(str(tmp_path)).to_pandas() \
        .set_index("user_id")["stage"]
    assert dict(out) == {1: 3, 2: 1, 3: 2, 4: 0, 5: 1}


def test_events_rollup_levels_consistent(ray_session, sf_dir):
    """Level-1 totals equal the sum of their level-0 rows; the grand
    total equals the sum of level-1."""
    from geo_inference_ray.relational import events_rollup

    out = events_rollup(sf_dir).to_pandas()
    l0 = out[out["level"] == 0]
    l1 = out[out["level"] == 1].set_index("event_type")
    l2 = out[out["level"] == 2]
    for et, grp in l0.groupby("event_type"):
        assert l1.loc[et, "n_events"] == grp["n_events"].sum()
        assert l1.loc[et, "value_milli"] == grp["value_milli"].sum()
    assert len(l2) == 1
    assert l2["n_events"].iloc[0] == l1["n_events"].sum()
    assert (l2["event_type"] == "ALL").all()


def test_distinct_users_exact(ray_session, sf_dir, duck):
    from geo_inference_ray.relational import distinct_users

    out = distinct_users(sf_dir).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)
    ora = duck.execute(
        "SELECT event_type, COUNT(DISTINCT user_id) AS n_users "
        "FROM events GROUP BY event_type ORDER BY event_type").fetchdf()
    assert (out["n_users"].to_numpy() == ora["n_users"].to_numpy()).all()


def test_length_percentile_rank_is_permutation(ray_session, sf_dir):
    """Ranks are exactly 1..n and percentiles are monotone in rank."""
    from geo_inference_ray.relational import length_percentile_rank

    out = length_percentile_rank(sf_dir).to_pandas() \
        .sort_values("rnk").reset_index(drop=True)
    n = len(out)
    assert list(out["rnk"]) == list(range(1, n + 1))
    assert out["pct_milli"].iloc[0] == 0
    assert out["pct_milli"].iloc[-1] == 1000
    assert out["pct_milli"].is_monotonic_increasing
    assert out["n_chars"].is_monotonic_increasing


def test_bigram_surprisal_ambiguous_transitions_score_higher(ray_session):
    """Ambiguous contexts (P(w2|w1) < 1) accrue surprisal; fully
    deterministic transition chains score exactly 0; exact values
    match a driver recompute of the bigram model."""
    import math

    import ray.data as rd

    from geo_inference_ray.textops import bigram_surprisal

    texts = ["a b a b a b a b", "a c a c a c a c",
             "q r s t u v w x"]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(texts)}))
    out = bigram_surprisal(docs).to_pandas().set_index("doc_id")
    # doc 0 has 4 occurrences of the 50/50 'a ->' context: 4*693
    assert out.loc[0, "bigram_surprisal_milli"] \
        > out.loc[2, "bigram_surprisal_milli"] == 0
    assert (out["n_bigrams"] == 7).all()
    # driver recompute
    from collections import Counter
    cb, cw = Counter(), Counter()
    for t in texts:
        ws = t.split(" ")
        for i in range(len(ws) - 1):
            cb[(ws[i], ws[i + 1])] += 1
            cw[ws[i]] += 1
    for did, t in enumerate(texts):
        ws = t.split(" ")
        s = sum(math.floor(-1000.0 * math.log(cb[(ws[i], ws[i + 1])]
                                              / cw[ws[i]]))
                for i in range(len(ws) - 1))
        assert out.loc[did, "bigram_surprisal_milli"] == s


def test_decontaminate_explicit_bench_ds(ray_session):
    """With an external benchmark set, is_benchmark must be 0 for all
    corpus rows (the doc_id % mod flag only describes the default
    self-derived split) while overlap still counts correctly."""
    import ray.data as rd

    from geo_inference_ray.textops import decontaminate

    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 97, 5], pa.int64()),   # 0,97 % 97 == 0
        "text": pa.array(["a b c d", "q r s t", "x y z w"]),
    }))
    bench = rd.from_arrow(pa.table({
        "doc_id": pa.array([1000], pa.int64()),
        "text": pa.array(["a b c zz"]),
    }))
    out = decontaminate(corpus, bench_ds=bench).to_pandas() \
        .set_index("doc_id")
    assert (out["is_benchmark"] == 0).all()
    assert out.loc[0, "n_overlap"] == 1      # shares "a b c"
    assert out.loc[97, "n_overlap"] == 0
    assert out.loc[5, "n_overlap"] == 0


def test_host_stats_golden(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from geo_inference_ray.textops import host_stats

    pages = rd.from_arrow(pa.table({
        "url": pa.array([
            "https://a.com/news/1", "https://a.com/news/2",
            "https://a.com/blog/3", "https://b.org/news/4"]),
        "text": pa.array(["aa", "bbbb", "c", "dd"]),
        "lang": pa.array(["en", "de", "en", "en"]),
    }))
    out = host_stats(pages).to_pandas() \
        .sort_values(["host", "seg"]).reset_index(drop=True)
    assert out["host"].tolist() == ["a.com", "a.com", "b.org"]
    assert out["seg"].tolist() == ["blog", "news", "news"]
    assert out["n_pages"].tolist() == [1, 2, 1]
    assert out["total_chars"].tolist() == [1, 6, 2]
    assert out["n_langs"].tolist() == [1, 2, 1]


def test_ccnet_buckets_golden(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from geo_inference_ray.textops import ccnet_buckets

    # lengths 1..9: tertile thresholds t1 = 3 (rank ceil(9/3)=3),
    # t2 = 6 (rank ceil(18/3.0)=6) -> tail {1,2,3}, middle {4,5,6},
    # head {7,8,9}
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(1, 10)), pa.int64()),
        "text": pa.array(["x" * n for n in range(1, 10)]),
    }))
    out = ccnet_buckets(docs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["bucket"].tolist() == (
        ["tail"] * 3 + ["middle"] * 3 + ["head"] * 3)

    # empty corpus
    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string())}))
    assert ccnet_buckets(empty).count() == 0


def test_dup_spans_golden(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from geo_inference_ray.textops import dup_spans

    # doc 1 "a b c d" -> {"a b c", "b c d"}; doc 2 "a b c" -> {"a b c"};
    # doc 3 has an in-doc repeat (distinct set size 3, none shared);
    # doc 4 is too short for a 3-gram and must be ABSENT from the output
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["a b c d", "a b c", "x y z x y z", "a b"]),
    }))
    out = dup_spans(docs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 2, 3]
    assert out["n_grams"].tolist() == [2, 1, 3]
    assert out["n_dup"].tolist() == [1, 1, 0]

    # hash-partition invariance: a different partition count must not
    # change counts (gram runs are grouped by the exact string)
    out2 = dup_spans(docs, docs_hint=4).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out2.equals(out)

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string())}))
    assert dup_spans(empty).count() == 0


def test_dup_spans_bails_mid_stream(ray_session, monkeypatch):
    """The per-doc combine's driver collect overflows the partial-row
    bound mid-stream: dup_spans must fall back to the distributed
    groupby with the driver fold's result."""
    import pyarrow as pa
    import ray.data as rd

    from geo_inference_ray import shuffle, textops
    from geo_inference_ray.shuffle import partitions_for

    words = [f"w{i}" for i in range(60)]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(40), pa.int64()),
        "text": pa.array([" ".join(words[i % 7:i % 7 + 30])
                          for i in range(40)])}))
    collected = []
    real_collect = shuffle.collect

    def spy(*args):
        collected.append(real_collect(*args))
        return collected[-1]

    monkeypatch.setattr(shuffle, "collect", spy)
    ref = textops.dup_spans(docs, docs_hint=1).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert collected[-1] is not None and len(ref) == 40
    # a bound far below the partial rows the 40 docs emit
    est = min(partitions_for(textops.DUP_SPANS_GRAMS_PER_DOC),
              textops.DUP_SPANS_GRAMS_PER_DOC)
    monkeypatch.setattr(shuffle, "PARTIAL_ROWS_DRIVER_LIMIT", est)
    out = textops.dup_spans(docs, docs_hint=1).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert collected[-1] is None  # entered the driver fold, then bailed
    assert out.equals(ref)


def test_mix_sample_source_bound_is_loud(ray_session, monkeypatch):
    """More distinct sources than MIX_MAX_SOURCES raise; exactly the
    bound still samples."""
    import pyarrow as pa
    import ray.data as rd

    from geo_inference_ray import textops

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(6), pa.int64()),
        "source": pa.array(["A", "B", "C"] * 2)}))
    monkeypatch.setattr(textops, "MIX_MAX_SOURCES", 3)
    assert textops.mix_sample(docs, k=3).count() > 0
    monkeypatch.setattr(textops, "MIX_MAX_SOURCES", 2)
    with pytest.raises(ValueError, match="distinct sources"):
        textops.mix_sample(docs)


def test_mix_sample_exact_rule(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from geo_inference_ray.textops import (MIX_HADD, MIX_HMOD, MIX_HMULT,
                                           mix_sample)

    # source A: 9 docs -> w=3; source B: 4 docs -> w=2; W=5
    # k=5: t_A = 3, t_B = 2 -> keep iff h % c_s < t_s
    ids = np.arange(13, dtype=np.int64)
    src = np.array(["A"] * 9 + ["B"] * 4, dtype=object)
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids), "source": pa.array(src, pa.string())}))
    out = mix_sample(docs, k=5).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    h = ((ids % MIX_HMOD) * MIX_HMULT + MIX_HADD) % MIX_HMOD
    cs = np.where(src == "A", 9, 4)
    ts = np.where(src == "A", 3, 2)
    exp = ids[(h % cs) < ts]
    assert out["doc_id"].tolist() == exp.tolist()
    # determinism: a second run returns the identical kept set
    out2 = mix_sample(docs, k=5).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out2.equals(out)

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "source": pa.array([], pa.string())}))
    assert mix_sample(empty).count() == 0


def test_cms_heavy_overestimates_and_golden(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from geo_inference_ray.textops import cms_heavy

    # "a" x5, "b" x3, "c" x1 across two docs
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["a a a b b c", "a a b"]),
    }))
    out = cms_heavy(docs, k=3).to_pandas()
    assert out["token"].tolist() == ["a", "b", "c"]
    assert out["n_exact"].tolist() == [5, 3, 1]
    # CMS never underestimates; with 3 tokens in 1024 cells there are
    # no collisions, so the sketch is exact here
    assert (out["n_cms"] >= out["n_exact"]).all()
    assert out["n_cms"].tolist() == [5, 3, 1]

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string())}))
    assert cms_heavy(empty).count() == 0


def test_rendezvous_minimal_disruption(ray_session, sf_dir):
    """HRW's defining property: dropping the highest shard reassigns
    ONLY the documents that were on it — every other document keeps
    its shard.  Also pins the assignment against a driver recompute
    and that the counts cover all docs reasonably evenly."""
    import pyarrow.parquet as pq_

    from geo_inference_ray.relational import (HRW_MOD, HRW_SHARDS,
                                              _hrw_coeffs,
                                              rendezvous_shards)

    out = rendezvous_shards(sf_dir).to_pandas().set_index("shard")
    ids = pq_.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id"])["doc_id"].to_numpy()
    a, b = _hrw_coeffs(HRW_SHARDS)
    sc = (ids[:, None] % HRW_MOD * a[None, :] + b[None, :]) % HRW_MOD
    sh = np.argmax(sc, axis=1)
    for s in range(HRW_SHARDS):
        m = sh == s
        if not m.any():
            assert s not in out.index
            continue
        assert out.loc[s, "n_docs"] == int(m.sum())
        assert out.loc[s, "id_sum"] == int(ids[m].sum())
    assert out["n_docs"].sum() == len(ids)
    # even-ish spread (universal hashes): no shard above 3x fair share
    assert out["n_docs"].max() <= 3 * len(ids) / HRW_SHARDS
    # minimal disruption: drop the last shard -> recompute argmax over
    # the remaining coefficients; only ex-last-shard docs move
    sh_small = np.argmax(sc[:, :-1], axis=1)
    moved = sh != sh_small
    assert (sh[moved] == HRW_SHARDS - 1).all()
    assert (sh_small[~moved] == sh[~moved]).all()


def test_weighted_sample_matches_bruteforce(ray_session, sf_dir):
    import numpy as np
    import pandas as pd

    from geo_inference_ray.relational import (PRI_HADD, PRI_HMOD,
                                              PRI_HMULT, weighted_sample)

    out = weighted_sample(sf_dir, k=20).to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    d = docs["doc_id"].to_numpy()
    w = docs["n_chars"].to_numpy().astype(np.float64)
    h = ((d % PRI_HMOD) * PRI_HMULT + PRI_HADD) % PRI_HMOD
    pri = w / ((h + 1).astype(np.float64) / float(PRI_HMOD))
    order = np.lexsort((d, -pri))[:20]
    assert out["doc_id"].tolist() == d[order].tolist()
    assert out["pri"].to_numpy().tolist() == pri[order].tolist()  # bitwise
    # priorities are sorted descending (sample is the global top-k)
    assert (np.diff(out["pri"].to_numpy()) <= 0).all()


# ---------------------------------------------------------------------------
# gopher_rules
# ---------------------------------------------------------------------------

def test_gopher_rules_bitmask_reference(ray_session):
    import ray.data as rd

    from geo_inference_ray.textops import gopher_rules

    docs = {
        # 30 distinct 4-char tokens, mean len 4.0 in band -> keep
        1: " ".join(f"t{i:03d}" for i in range(30)),
        # 10 tokens -> too short (bit 1); all distinct, mean 4.0
        2: " ".join(f"w{i:03d}" for i in range(10)),
        # "spam" repeated 20/40 -> top-tf 50% (bit 8); ttr 21/40 ok
        3: " ".join(["spam"] * 20 + [f"o{i:03d}" for i in range(20)]),
        # 100 x 4-char tokens = 499 chars > 450 (bit 2), mean 4.0
        4: " ".join(f"t{i:03d}" for i in range(100)),
        # mean token length 2.0 (bit 4) + repetition (8) + ttr (16)
        5: " ".join(["ab"] * 30),
    }
    t = pa.table({"doc_id": pa.array(list(docs), pa.int64()),
                  "text": pa.array(list(docs.values()))})
    res = gopher_rules(rd.from_arrow(t)).to_pandas() \
        .set_index("doc_id")

    assert res.loc[1, "rule_mask"] == 0 and res.loc[1, "keep"] == 1
    assert res.loc[2, "rule_mask"] == 1
    assert res.loc[3, "rule_mask"] == 8
    assert res.loc[4, "rule_mask"] == 2
    # doc 5: mean len 2.0 (bit 4) + single repeated token (bit 8)
    # + ttr 1/30 (bit 16); 30 tokens of 2 chars = 89 chars, not long
    assert res.loc[5, "rule_mask"] == 4 | 8 | 16
    assert (res.loc[res["rule_mask"] != 0, "keep"] == 0).all()


def test_ngram_repetition_naive_reference(ray_session):
    """Randomized docs vs a per-doc Counter reference: permille of
    chars in the top 2-gram and in duplicated 3-grams, floor exact."""
    from collections import Counter

    import numpy as np
    import ray.data as rd

    from geo_inference_ray.textops import ngram_repetition

    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(12)] + ["the", "of", "a"]
    docs = {}
    for did in range(40):
        n = int(rng.integers(1, 60))
        docs[did] = " ".join(rng.choice(vocab, n))
    t = pa.table({"doc_id": pa.array(list(docs), pa.int64()),
                  "text": pa.array(list(docs.values()))})
    got = ngram_repetition(rd.from_arrow(t)).to_pandas() \
        .set_index("doc_id")

    for did, text in docs.items():
        toks = text.split(" ")
        nc = len(text)
        g2 = Counter(" ".join(toks[i:i + 2])
                     for i in range(len(toks) - 1))
        top2 = 0
        if g2:
            g, c = sorted(g2.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            top2 = c * len(g)
        g3 = Counter(" ".join(toks[i:i + 3])
                     for i in range(len(toks) - 2))
        dup3 = sum(c * len(g) for g, c in g3.items() if c >= 2)
        assert got.loc[did, "top2_milli"] == 1000 * top2 // nc, did
        assert got.loc[did, "dup3_milli"] == 1000 * dup3 // nc, did
    # boilerplate doc saturates, distinct doc is 0
    rep = " ".join(["page not found error"] * 10)
    uniq = " ".join(f"u{i:04d}" for i in range(30))
    t2 = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                   "text": pa.array([rep, uniq])})
    r2 = ngram_repetition(rd.from_arrow(t2)).to_pandas() \
        .set_index("doc_id")
    assert r2.loc[1, "dup3_milli"] > 900
    # a fully distinct doc has zero duplicated 3-grams; its top 2-gram
    # still covers one occurrence's chars ("u0000 u0001" = 11 of 179)
    assert r2.loc[2, "dup3_milli"] == 0
    assert r2.loc[2, "top2_milli"] == 1000 * 11 // len(uniq)


def test_winnow_fingerprints_naive_and_guarantee(ray_session):
    """Winnowing vs a direct per-doc recompute (rightmost-min
    selection), plus the paper's guarantee: two documents sharing a
    substring of >= k+w-1 bytes share at least one selected
    fingerprint VALUE, while the stats still discriminate unrelated
    docs; short docs emit the sentinel row."""
    import ray.data as rd

    from geo_inference_ray.textops import (FP_BASE, FP_MOD, WINNOW_K,
                                           WINNOW_W,
                                           winnow_fingerprints)

    k, w = WINNOW_K, WINNOW_W
    shared = "the quick brown fox jumps over the lazy dog"
    docs = {1: "prefix one " + shared + " suffix alpha",
            2: "other text here " + shared + " and more",
            3: "completely different content with no overlap at all",
            4: "tiny"}  # < k bytes -> sentinel
    t = pa.table({"doc_id": pa.array(list(docs), pa.int64()),
                  "text": pa.array(list(docs.values()))})
    got = winnow_fingerprints(rd.from_arrow(t)).to_pandas() \
        .set_index("doc_id")

    def select(text):
        b = text.encode()
        pows = [pow(FP_BASE, j, FP_MOD) for j in range(k)]
        h = [sum(b[i + j] * pows[j] for j in range(k)) % FP_MOD
             for i in range(len(b) - k + 1)]
        sel = set()
        for s in range(len(h) - w + 1):
            win = h[s:s + w]
            mv = min(win)
            sel.add(s + max(j for j in range(w) if win[j] == mv))
        return {h[p] for p in sel}, len(h)

    fps = {}
    for did, text in docs.items():
        if len(text.encode()) >= k + w - 1:
            vals, m = select(text)
            fps[did] = vals
            assert got.loc[did, "n_grams"] == m
            assert got.loc[did, "n_selected"] == len(vals)
            assert got.loc[did, "fp_min"] == min(vals)
            assert got.loc[did, "fp_sum"] == sum(vals)
    assert got.loc[4, "n_selected"] == 0
    assert got.loc[4, "fp_min"] == -1 and got.loc[4, "fp_sum"] == 0
    # guarantee: the shared 44-byte substring forces a common
    # fingerprint between docs 1 and 2; doc 3 stays disjoint
    assert fps[1] & fps[2]
    assert not (fps[1] & fps[3])


def test_bm25_topk_naive_reference(ray_session, tmp_path):
    """BM25 vs a driver recompute of the integer contract on a small
    corpus, plus the two signature BM25 behaviors: more matching
    terms outrank fewer, and the same tf in a LONGER doc scores
    lower (length normalization — plain tf-idf lacks this)."""
    import math

    import pyarrow.parquet as pq_

    from geo_inference_ray.textops import (BM25_B, BM25_K1,
                                           SEARCH_TERMS, bm25_topk)

    filler = ["alpha", "beta", "gamma", "delta"]
    docs = {
        1: "data join stream alpha",          # all 3 terms, short
        2: "data join alpha beta",            # 2 terms
        3: "data " + " ".join(filler * 5),    # 1 term, long
        4: "data alpha beta",                 # 1 term, short
        5: " ".join(filler * 3),              # 0 terms
        # filler docs keep every df below N/2 — the plus-half idf
        # goes NEGATIVE for majority terms (by design in BM25), which
        # would invert the length-normalization assertion below
        6: " ".join(filler * 2),
        7: " ".join(reversed(filler)),
        8: " ".join(filler),
        9: "alpha gamma " + " ".join(filler),
    }
    t = pa.table({"doc_id": pa.array(list(docs), pa.int64()),
                  "text": pa.array(list(docs.values()))})
    d = tmp_path / "bm"
    d.mkdir()
    pq_.write_table(t, d / "documents.parquet")
    import ray.data as rd

    got = bm25_topk(rd.read_parquet(str(d / "documents.parquet"),
                                    columns=["doc_id", "text"]),
                    n_docs=len(docs)).to_pandas().set_index("doc_id")

    toks = {k: v.split(" ") for k, v in docs.items()}
    n = len(docs)
    avgdl = float(sum(len(v) for v in toks.values())) / float(n)
    want = {}
    for did, tk in toks.items():
        s = 0
        for term in SEARCH_TERMS:
            tf = tk.count(term)
            if not tf:
                continue
            df = sum(1 for v in toks.values() if term in v)
            idf = math.floor(1000.0 * math.log(
                ((n - df) + 0.5) / (df + 0.5)))
            num = idf * (float(tf) * (BM25_K1 + 1.0))
            den = float(tf) + BM25_K1 * (
                (1.0 - BM25_B) + BM25_B * (len(tk) / avgdl))
            s += math.floor(num / den)
        if s or any(term in tk for term in SEARCH_TERMS):
            want[did] = s
    assert dict(got["score_milli"]) == want
    assert 5 not in got.index                    # no-term doc absent
    # more matching terms outrank fewer at similar length
    assert got.loc[1, "score_milli"] > got.loc[2, "score_milli"] \
        > got.loc[4, "score_milli"]
    # length normalization: same single term, longer doc scores lower
    assert got.loc[4, "score_milli"] > got.loc[3, "score_milli"]
    assert list(got.sort_values("rk").index) == \
        list(got.sort_values(["score_milli", "doc_id"],
                             ascending=[False, True]).index)


def test_dsir_weights_semantics(ray_session):
    """A document made of target-corpus-only vocabulary outscores one
    made of raw-only vocabulary; weights equal a driver-side recompute
    of the add-1 milli-nat contract."""
    import math

    import ray.data as rd

    from geo_inference_ray.textops import dsir_weights

    rows = [
        (1, "en", "alpha alpha beta"),
        (2, "en", "alpha beta beta"),
        (3, "fr", "gamma delta gamma"),
        (4, "fr", "delta gamma alpha"),
        (5, "fr", "alpha alpha alpha"),   # raw-lang doc, target vocab
    ]
    t = pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                  "lang": pa.array([r[1] for r in rows]),
                  "text": pa.array([r[2] for r in rows])})
    got = dsir_weights(rd.from_arrow(t)).to_pandas() \
        .set_index("doc_id")

    toks = [r[2].split(" ") for r in rows]
    c_tgt, c_raw = {}, {}
    for r, tk in zip(rows, toks):
        for w in tk:
            c_raw[w] = c_raw.get(w, 0) + 1
            if r[1] == "en":
                c_tgt[w] = c_tgt.get(w, 0) + 1
    n_tgt = sum(c_tgt.values())
    n_raw = sum(c_raw.values())
    v = len(c_raw)

    def term(w):
        arg = ((c_tgt.get(w, 0) + 1.0) * float(n_raw + v)) \
            / ((c_raw[w] + 1.0) * float(n_tgt + v))
        return math.floor(1000.0 * math.log(arg))

    for r, tk in zip(rows, toks):
        assert got.loc[r[0], "w_milli"] == sum(term(w) for w in tk)
        assert got.loc[r[0], "n_tokens"] == len(tk)
    # target-vocab doc scores above the raw-vocab docs even though its
    # own lang is raw — DSIR scores content, not the label
    assert got.loc[5, "w_milli"] > got.loc[3, "w_milli"]


def test_gopher_rules_discriminates_on_corpus(ray_session):
    import ray.data as rd

    from geo_inference_ray.textops import gopher_rules

    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    res = gopher_rules(ds).to_pandas()
    assert len(res) == 500
    # thresholds are tuned so BOTH outcomes occur on the synth corpus
    assert 0 < int(res["keep"].sum()) < 500
    assert res["rule_mask"].max() < 32


def test_cdc_chunks_shift_stability_and_counts(ray_session):
    import pandas as pd

    """CDC property: prepending tokens to a doc changes at most the
    chunks before the first boundary — the shared tail re-aligns, so
    duplicated spans are still detected; counts are exact."""
    import ray.data as rd

    from geo_inference_ray.textops import cdc_chunks

    body = " ".join(f"w{i % 37}q{(i * 7) % 23}" for i in range(200))
    rows = [
        {"doc_id": 1, "text": body},
        {"doc_id": 2, "text": "prefix tokens added here " + body},
        {"doc_id": 3, "text": " ".join(
            f"u{i}v{i * 3}" for i in range(120))},  # unrelated
    ]
    out = cdc_chunks(rd.from_pandas(pd.DataFrame(rows))).to_pandas()
    # shared spans between doc 1 and 2 must surface as n_docs==2 keys
    assert len(out) >= 3
    assert (out["n_docs"] == 2).any()
    assert (out["n_occur"] >= 2).all()

    # exact duplicate docs: every chunk key doubles
    rows2 = [{"doc_id": 10, "text": body}, {"doc_id": 11, "text": body}]
    out2 = cdc_chunks(rd.from_pandas(pd.DataFrame(rows2))).to_pandas()
    assert (out2["n_occur"] == 2).all() and (out2["n_docs"] == 2).all()
    # chunk lengths partition the token stream
    assert out2["chunk_len"].sum() == 200


def test_span_dedup_strips_repeated_spans(ray_session):
    """Duplicated spans keep one canonical occurrence; unique prose
    survives byte-identically; a pure-duplicate doc comes back empty;
    output has one row per input doc."""
    import pandas as pd
    import ray.data as rd

    from geo_inference_ray.textops import span_dedup

    boiler = " ".join(f"nav{i}menu{i * 3}" for i in range(150))
    uniq1 = " ".join(f"alpha{i}beta{i * 3}" for i in range(50))
    uniq2 = " ".join(f"gamma{i}delta{i * 5}" for i in range(50))
    rows = [
        {"doc_id": 1, "text": boiler + " " + uniq1},
        {"doc_id": 2, "text": boiler + " " + uniq2},
        {"doc_id": 3, "text": boiler},
    ]
    out = span_dedup(rd.from_pandas(pd.DataFrame(rows))).to_pandas() \
        .set_index("doc_id")["text_clean"]
    assert len(out) == 3
    # doc 1 is the canonical owner of the shared prefix -> keeps it all
    assert out.loc[1] == rows[0]["text"]
    # doc 2 loses (most of) the boilerplate but keeps its unique tail
    assert uniq2.split(" ")[-1] in out.loc[2]
    assert len(out.loc[2]) < len(rows[1]["text"])
    for tok in uniq2.split(" "):
        assert tok in out.loc[2]
    # doc 3 is pure boilerplate owned by doc 1 -> near-empty remainder
    assert len(out.loc[3]) < len(boiler)


def test_boiler_score_planted_template(ray_session):
    """Docs sharing a planted footer score high boiler_milli; unique
    prose scores 0; broadcast and join-fallback paths agree exactly."""
    import pandas as pd
    import ray.data as rd

    from geo_inference_ray.textops import boiler_score

    footer = "copyright acme corp all rights reserved contact us"
    rows = [{"doc_id": i,
             "text": " ".join(f"p{i}w{j}" for j in range(30))
             + " " + footer} for i in range(8)]
    rows += [{"doc_id": 100 + i,
              "text": " ".join(f"u{i}q{j}" for j in range(40))}
             for i in range(4)]
    docs = rd.from_pandas(pd.DataFrame(rows))
    out = boiler_score(docs, min_df=6).to_pandas() \
        .set_index("doc_id").sort_index()
    # footer shingles appear in 8 docs (>= min_df): templated docs > 0
    assert (out.loc[:7, "n_boiler"] > 0).all()
    assert (out.loc[:7, "boiler_milli"] > 0).all()
    # unique docs: zero boilerplate
    assert (out.loc[100:, "n_boiler"] == 0).all()
    # join fallback (cap 0 forces it) is bit-identical
    out2 = boiler_score(docs, min_df=6, broadcast_cap=0).to_pandas() \
        .set_index("doc_id").sort_index()
    pd.testing.assert_frame_equal(out, out2)


def test_boiler_score_no_hot_set(ray_session):
    """All-unique corpus: hot set is empty, every doc scores 0."""
    import pandas as pd
    import ray.data as rd

    from geo_inference_ray.textops import boiler_score

    docs = rd.from_pandas(pd.DataFrame(
        [{"doc_id": i, "text": " ".join(f"x{i}y{j}" for j in range(20))}
         for i in range(5)]))
    out = boiler_score(docs).to_pandas()
    assert (out["n_boiler"] == 0).all()
    assert (out["boiler_milli"] == 0).all()
    assert len(out) == 5
