//! Property tests: the vectorized hash join must agree with a naive
//! nested-loop reference on random inputs — match for match and *in
//! order* (probe rows ascending, and each probe row's build matches in
//! ascending build-row order) — and the exact semi-join must equal "rows
//! with ≥1 match". Every case also runs through an 8-partition
//! [`PartitionedHashTable`], whose probes must produce the same sequence.

use proptest::prelude::*;
use rpt_common::hash::hash_columns_sel;
use rpt_common::{DataChunk, Partitioner, Utf8Dict, Vector, VECTOR_SIZE};
use rpt_exec::{JoinHashTable, PartitionedHashTable};
use std::sync::Arc;

/// Nested-loop reference over logical rows of (possibly composite) keys: a
/// pair matches when every key column is non-NULL and equal.
fn nested_loop<K: PartialEq>(
    build: &[Vec<Option<K>>],
    probe: &[Vec<Option<K>>],
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (p, pk) in probe.iter().enumerate() {
        for (b, bk) in build.iter().enumerate() {
            if pk.iter().zip(bk).all(|(x, y)| x.is_some() && x == y) {
                out.push((p as u32, b as u32));
            }
        }
    }
    out
}

/// Single-column keys as one-element composite keys.
fn single<K: Clone>(keys: &[Option<K>]) -> Vec<Vec<Option<K>>> {
    keys.iter().map(|k| vec![k.clone()]).collect()
}

/// Map generated integers to keys: negative values are NULL.
fn nullable(raw: &[i64]) -> Vec<Option<i64>> {
    raw.iter().map(|&v| (v >= 0).then_some(v)).collect()
}

/// An `Int64` column with NULLs where the key is `None`.
fn i64_col(keys: &[Option<i64>]) -> Vector {
    let mut v = Vector::from_i64(keys.iter().map(|k| k.unwrap_or(0)).collect());
    if keys.iter().any(Option::is_none) {
        v.validity = Some(keys.iter().map(Option::is_some).collect());
    }
    v
}

/// A flat `Utf8` column with NULLs where the key is `None`.
fn utf8_col(keys: &[Option<String>]) -> Vector {
    let mut v = Vector::from_utf8(keys.iter().map(|k| k.clone().unwrap_or_default()).collect());
    if keys.iter().any(Option::is_none) {
        v.validity = Some(keys.iter().map(Option::is_some).collect());
    }
    v
}

/// A dictionary-backed `Utf8` column over `dict` (which holds every
/// non-NULL key).
fn dict_col(keys: &[Option<String>], dict: &Arc<Utf8Dict>) -> Vector {
    let codes = keys
        .iter()
        .map(|k| {
            k.as_ref()
                .map_or(0, |s| dict.code_of(s).expect("key in dict") as i64)
        })
        .collect();
    let validity = keys
        .iter()
        .any(Option::is_none)
        .then(|| keys.iter().map(Option::is_some).collect());
    Vector::from_dict_codes(codes, validity, Arc::clone(dict))
}

/// Row-id column: `ids[i]` is physical row `i`'s logical build row.
fn id_col(ids: Vec<i64>) -> Vector {
    Vector::from_i64(ids)
}

/// Split `n` rows into `VECTOR_SIZE` chunks built by `make(start, end)`.
fn chunked(n: usize, make: impl Fn(usize, usize) -> DataChunk) -> Vec<DataChunk> {
    let mut out: Vec<DataChunk> = (0..n)
        .step_by(VECTOR_SIZE)
        .map(|s| make(s, (s + VECTOR_SIZE).min(n)))
        .collect();
    if out.is_empty() {
        out.push(make(0, 0));
    }
    out
}

/// Route the build chunks by key hash into 8 partitions and build one
/// table per partition, as the partitioned hash-build sink does.
fn partitioned(build: &[DataChunk], keys: &[usize]) -> PartitionedHashTable {
    let partitioner = Partitioner::new(8);
    let mut parts: Vec<Vec<DataChunk>> = vec![Vec::new(); partitioner.count()];
    for c in build {
        let cols: Vec<&Vector> = keys.iter().map(|&k| &c.columns[k]).collect();
        let hashes = hash_columns_sel(&cols, c.selection.as_deref(), c.num_rows());
        for (p, sub) in partitioner.split_chunk(c, &hashes).into_iter().enumerate() {
            parts[p].extend(sub);
        }
    }
    let empty = DataChunk::new(
        build[0]
            .columns
            .iter()
            .map(|c| Vector::new_empty(c.data_type()))
            .collect(),
    );
    let tables = parts
        .into_iter()
        .map(|mut chunks| {
            if chunks.is_empty() {
                chunks.push(empty.clone());
            }
            JoinHashTable::build(&chunks, keys.to_vec()).expect("partition build")
        })
        .collect();
    PartitionedHashTable::from_parts(tables)
}

/// Probe `probe` against `build` (both keyed on the columns `keys`) with a
/// plain and an 8-partition table, and require both to emit exactly
/// `want`, in order; the semi-probes must emit `want`'s distinct probe
/// rows. The last build column holds each physical row's logical build
/// row index.
fn check(
    build: &[DataChunk],
    probe: &DataChunk,
    keys: &[usize],
    want: &[(u32, u32)],
) -> Result<(), TestCaseError> {
    let id = build[0].num_columns() - 1;
    let mut want_semi: Vec<u32> = want.iter().map(|&(p, _)| p).collect();
    want_semi.dedup();

    let ht = JoinHashTable::build(build, keys.to_vec()).expect("build");
    let (mut p_out, mut b_out) = (vec![], vec![]);
    ht.probe(probe, keys, &mut p_out, &mut b_out);
    let got: Vec<(u32, u32)> = p_out.iter().copied().zip(b_out.iter().copied()).collect();
    prop_assert_eq!(&got, want);
    let ids = ht.data.columns[id].i64_slice();
    prop_assert!(b_out.iter().all(|&b| ids[b as usize] == b as i64));
    prop_assert_eq!(&ht.semi_probe(probe, keys), &want_semi);

    let pht = partitioned(build, keys);
    prop_assert_eq!(pht.num_rows(), ht.num_rows());
    let (mut p_out, mut refs) = (vec![], vec![]);
    pht.probe(probe, keys, &mut p_out, &mut refs);
    let gathered = pht.gather(id, &refs);
    let got: Vec<(u32, u32)> = p_out
        .iter()
        .zip(gathered.i64_slice())
        .map(|(&p, &b)| (p, b as u32))
        .collect();
    prop_assert_eq!(&got, want);
    prop_assert_eq!(&pht.semi_probe(probe, keys), &want_semi);
    Ok(())
}

/// Build chunks for `VECTOR_SIZE`-chunked `Int64` key columns.
fn i64_build(cols: &[Vec<Option<i64>>]) -> Vec<DataChunk> {
    let n = cols.first().map_or(0, Vec::len);
    chunked(n, |s, e| {
        let mut vs: Vec<Vector> = cols.iter().map(|c| i64_col(&c[s..e])).collect();
        vs.push(id_col((s as i64..e as i64).collect()));
        DataChunk::new(vs)
    })
}

const WORDS: [&str; 6] = ["ant", "bee", "cat", "dog", "eel", "fox"];

/// Generated indices into `WORDS` as nullable strings (negative is NULL).
fn words(raw: &[i64]) -> Vec<Option<String>> {
    raw.iter()
        .map(|&i| (i >= 0).then(|| WORDS[i as usize].to_string()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn hash_join_matches_nested_loop(
        build in proptest::collection::vec(-5i64..5, 0..40),
        probe in proptest::collection::vec(-5i64..5, 0..40),
    ) {
        let (build, probe): (Vec<_>, Vec<_>) = (
            build.into_iter().map(Some).collect(),
            probe.into_iter().map(Some).collect(),
        );
        let want = nested_loop(&single(&build), &single(&probe));
        let probe_chunk = DataChunk::new(vec![i64_col(&probe)]);
        check(&i64_build(&[build]), &probe_chunk, &[0], &want)?;
    }

    #[test]
    fn semi_join_matches_membership(
        build in proptest::collection::vec(-5i64..5, 0..40),
        probe in proptest::collection::vec(-5i64..5, 0..40),
    ) {
        let ht = JoinHashTable::build(
            &[DataChunk::new(vec![Vector::from_i64(build.clone())])],
            vec![0],
        )
        .unwrap();
        let probe_chunk = DataChunk::new(vec![Vector::from_i64(probe.clone())]);
        let got = ht.semi_probe(&probe_chunk, &[0]);
        let want: Vec<u32> = probe
            .iter()
            .enumerate()
            .filter(|(_, k)| build.contains(k))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn composite_key_join_matches_reference(
        rows in proptest::collection::vec((-3i64..3, -3i64..3), 0..30),
        probes in proptest::collection::vec((-3i64..3, -3i64..3), 0..30),
    ) {
        let split = |rs: &[(i64, i64)]| -> Vec<Vec<Option<i64>>> {
            vec![
                rs.iter().map(|r| Some(r.0)).collect(),
                rs.iter().map(|r| Some(r.1)).collect(),
            ]
        };
        let (build, probe) = (split(&rows), split(&probes));
        let as_rows = |rs: &[(i64, i64)]| -> Vec<Vec<Option<i64>>> {
            rs.iter().map(|r| vec![Some(r.0), Some(r.1)]).collect()
        };
        let want = nested_loop(&as_rows(&rows), &as_rows(&probes));
        let probe_chunk = DataChunk::new(vec![i64_col(&probe[0]), i64_col(&probe[1])]);
        check(&i64_build(&build), &probe_chunk, &[0, 1], &want)?;
    }

    #[test]
    fn null_keys_match_nothing_single_and_composite(
        rows in proptest::collection::vec((-2i64..4, -2i64..4), 0..40),
        probes in proptest::collection::vec((-2i64..4, -2i64..4), 0..40),
    ) {
        let cols = |rs: &[(i64, i64)]| -> [Vec<Option<i64>>; 2] {
            [
                nullable(&rs.iter().map(|r| r.0).collect::<Vec<_>>()),
                nullable(&rs.iter().map(|r| r.1).collect::<Vec<_>>()),
            ]
        };
        let (build, probe) = (cols(&rows), cols(&probes));
        let build_chunks = i64_build(&build);
        let probe_chunk = DataChunk::new(vec![i64_col(&probe[0]), i64_col(&probe[1])]);

        let want = nested_loop(&single(&build[0]), &single(&probe[0]));
        check(&build_chunks, &probe_chunk, &[0], &want)?;

        let pairs = |c: &[Vec<Option<i64>>; 2]| -> Vec<Vec<Option<i64>>> {
            c[0].iter().zip(&c[1]).map(|(a, b)| vec![*a, *b]).collect()
        };
        let want = nested_loop(&pairs(&build), &pairs(&probe));
        check(&build_chunks, &probe_chunk, &[0, 1], &want)?;
    }

    #[test]
    fn dictionary_and_flat_utf8_keys_agree(
        build in proptest::collection::vec(-1i64..6, 0..40),
        probe in proptest::collection::vec(-1i64..6, 0..40),
        // 0: dict build, flat probe; 1: flat build, dict probe;
        // 2: both over one dictionary; 3: two distinct dictionaries.
        encoding in 0u8..4,
    ) {
        let (build, probe) = (words(&build), words(&probe));
        let want = nested_loop(&single(&build), &single(&probe));
        let dict_of = |ks: &[Option<String>]| Utf8Dict::from_values(ks.iter().flatten().cloned());
        let shared = Utf8Dict::from_values(WORDS);
        let (build_dict, probe_dict) = match encoding {
            0 => (Some(dict_of(&build)), None),
            1 => (None, Some(dict_of(&probe))),
            2 => (Some(Arc::clone(&shared)), Some(shared)),
            _ => (Some(dict_of(&build)), Some(dict_of(&probe))),
        };
        let col = |ks: &[Option<String>], dict: &Option<Arc<Utf8Dict>>| match dict {
            Some(d) => dict_col(ks, d),
            None => utf8_col(ks),
        };
        // Two build chunks, so the dictionary survives an append.
        let mid = build.len() / 2;
        let build_chunks: Vec<DataChunk> = [(0, mid), (mid, build.len())]
            .iter()
            .map(|&(s, e)| {
                DataChunk::new(vec![
                    col(&build[s..e], &build_dict),
                    id_col((s as i64..e as i64).collect()),
                ])
            })
            .collect();
        let probe_chunk = DataChunk::new(vec![col(&probe, &probe_dict)]);
        check(&build_chunks, &probe_chunk, &[0], &want)?;
    }

    #[test]
    fn multi_chunk_build_with_selections(
        chunks in proptest::collection::vec(
            proptest::collection::vec((-1i64..6, proptest::bool::ANY), 0..30),
            1..5,
        ),
        probe in proptest::collection::vec((-1i64..6, proptest::bool::ANY), 0..40),
    ) {
        // Logical build rows are the kept rows of every chunk, in order.
        let mut logical: Vec<Option<i64>> = Vec::new();
        let mut build_chunks = Vec::new();
        for rows in &chunks {
            let keys = nullable(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
            let mut ids = Vec::new();
            let mut sel = Vec::new();
            for (i, (&k, &(_, keep))) in keys.iter().zip(rows).enumerate() {
                if keep {
                    sel.push(i as u32);
                    ids.push(logical.len() as i64);
                    logical.push(k);
                } else {
                    ids.push(-1);
                }
            }
            let mut c = DataChunk::new(vec![i64_col(&keys), id_col(ids)]);
            c.set_selection(sel);
            build_chunks.push(c);
        }
        let probe_keys = nullable(&probe.iter().map(|r| r.0).collect::<Vec<_>>());
        let probe_sel: Vec<u32> = (0..probe.len() as u32).filter(|&i| probe[i as usize].1).collect();
        let probe_logical: Vec<Option<i64>> =
            probe_sel.iter().map(|&i| probe_keys[i as usize]).collect();
        let mut probe_chunk = DataChunk::new(vec![i64_col(&probe_keys)]);
        probe_chunk.set_selection(probe_sel);

        let want = nested_loop(&single(&logical), &single(&probe_logical));
        check(&build_chunks, &probe_chunk, &[0], &want)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// 50k+ build rows: half the rows share 16 keys (chains thousands of
    /// rows long), the rest spread over ~20k distinct keys, far more than
    /// enough to collide in a 2^17-bucket table.
    #[test]
    fn large_build_with_long_chains_and_bucket_collisions(
        build in proptest::collection::vec(0i64..40_000, 50_000..=52_000),
        probe in proptest::collection::vec(0i64..40_000, 100..=200),
    ) {
        let skew = |raw: Vec<i64>| -> Vec<Option<i64>> {
            raw.into_iter()
                .map(|x| Some(if x < 20_000 { x % 16 } else { x }))
                .collect()
        };
        let (build, probe) = (skew(build), skew(probe));
        let want = nested_loop(&single(&build), &single(&probe));
        let probe_chunk = DataChunk::new(vec![i64_col(&probe)]);
        check(&i64_build(&[build]), &probe_chunk, &[0], &want)?;
    }
}
