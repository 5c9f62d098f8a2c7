//! Both file systems answer namespace calls identically. The paper swaps
//! only the storage layer under an unchanged Hadoop, so BSFS and the HDFS
//! baseline must agree on every namespace answer — success or error, down to
//! the error's message — and on every listing. Random sequences of calls run
//! against `BsfsFs`, `HdfsFs` (both through `DistFs`) and a `BTreeMap`
//! model, and after every call all three must agree.

use blobseer::{BlobSeer, BlobSeerConfig};
use bsfs::{Bsfs, BsfsConfig};
use hdfs_sim::{Hdfs, HdfsConfig};
use mapreduce::{BsfsFs, DistFs, HdfsFs, MrError, MrResult};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Paths the calls pick from: nested names that collide often, plus forms
/// that normalise (`//a//b/`, `/./b`) and ones that are invalid.
const PATHS: &[&str] = &[
    "/", "/a", "/b", "/a/b", "/a/c", "/b/a", "/a/b/c", "/c/d/e", "//a//b/", "/./b", "a", "/a/../b",
    "",
];

/// What a call answered: its value, or its error's message.
type Outcome = Result<String, String>;

fn outcome<T: ToString>(result: MrResult<T>) -> Outcome {
    result.map(|v| v.to_string()).map_err(|e| match e {
        MrError::Storage(message) => message,
        other => other.to_string(),
    })
}

/// One namespace call.
#[derive(Debug, Clone)]
enum Call {
    Mkdirs(&'static str),
    WriteFile(&'static str, usize),
    Rename(&'static str, &'static str),
    Delete(&'static str, bool),
    List(&'static str),
    Exists(&'static str),
    Len(&'static str),
}

fn call(fs: &dyn DistFs, call: &Call) -> Outcome {
    match *call {
        Call::Mkdirs(p) => outcome(fs.mkdirs(p).map(|()| "ok")),
        Call::WriteFile(p, len) => {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            outcome(fs.write_file(p, &data).map(|()| "ok"))
        }
        Call::Rename(from, to) => outcome(fs.rename(from, to).map(|()| "ok")),
        Call::Delete(p, recursive) => outcome(fs.delete(p, recursive).map(|()| "ok")),
        Call::List(p) => outcome(fs.list(p).map(|children| children.join(","))),
        Call::Exists(p) => Ok(fs.exists(p).to_string()),
        Call::Len(p) => outcome(fs.len(p)),
    }
}

/// Every path under the root, found by listing, with a file's length.
fn tree(fs: &dyn DistFs) -> Vec<(String, Option<u64>)> {
    let mut out = Vec::new();
    let mut dirs = vec!["/".to_string()];
    while let Some(dir) = dirs.pop() {
        for child in fs.list(&dir).unwrap() {
            if fs.list(&child).is_ok() {
                out.push((child.clone(), None));
                dirs.push(child);
            } else {
                out.push((child.clone(), Some(fs.len(&child).unwrap())));
            }
        }
    }
    out.sort();
    out
}

/// The reference: normalised path -> `None` for a directory, `Some(len)`
/// for a file. Every ancestor of an entry is a directory entry.
struct Model {
    entries: BTreeMap<String, Option<u64>>,
}

fn normalize(path: &str) -> Result<String, String> {
    let invalid = || format!("invalid path: {path}");
    if !path.starts_with('/') {
        return Err(invalid());
    }
    let mut parts = Vec::new();
    for part in path.split('/').filter(|p| !p.is_empty() && *p != ".") {
        if part == ".." {
            return Err(invalid());
        }
        parts.push(part);
    }
    Ok(format!("/{}", parts.join("/")))
}

fn parent(path: &str) -> String {
    match path.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(i) => path[..i].to_string(),
    }
}

fn under(path: &str, dir: &str) -> bool {
    path.len() > dir.len() && path.starts_with(dir) && path.as_bytes()[dir.len()] == b'/'
}

impl Model {
    fn new() -> Self {
        Model {
            entries: BTreeMap::from([("/".to_string(), None)]),
        }
    }

    /// Make `path` and its ancestors directories, stopping at a file.
    fn add_dirs(&mut self, path: &str) -> Result<(), String> {
        let mut current = String::new();
        for part in path.split('/').filter(|p| !p.is_empty()) {
            current = format!("{current}/{part}");
            if let Some(Some(_)) = self.entries.get(&current) {
                return Err(format!("not a directory: {current}"));
            }
            self.entries.insert(current.clone(), None);
        }
        Ok(())
    }

    fn apply(&mut self, call: &Call) -> Outcome {
        match *call {
            Call::Mkdirs(p) => {
                let p = normalize(p)?;
                if let Some(Some(_)) = self.entries.get(&p) {
                    return Err(format!("path already exists: {p}"));
                }
                self.add_dirs(&p)?;
                Ok("ok".into())
            }
            Call::WriteFile(p, len) => {
                let p = normalize(p)?;
                if p == "/" {
                    return Err("is a directory: /".into());
                }
                if self.entries.contains_key(&p) {
                    return Err(format!("path already exists: {p}"));
                }
                self.add_dirs(&parent(&p))?;
                self.entries.insert(p, Some(len as u64));
                Ok("ok".into())
            }
            Call::Rename(from, to) => {
                let (from, to) = (normalize(from)?, normalize(to)?);
                if from == "/" || to == "/" {
                    return Err("invalid path: cannot rename the root directory".into());
                }
                if under(&to, &from) {
                    return Err(format!("invalid path: cannot move {from} into itself"));
                }
                if self.entries.contains_key(&to) {
                    return Err(format!("path already exists: {to}"));
                }
                if self.entries.get(&parent(&to)) != Some(&None) {
                    return Err(format!("parent directory does not exist: {}", parent(&to)));
                }
                if !self.entries.contains_key(&from) {
                    return Err(format!("file not found: {from}"));
                }
                let moved: Vec<String> = self
                    .entries
                    .keys()
                    .filter(|k| **k == from || under(k, &from))
                    .cloned()
                    .collect();
                let moved: Vec<(String, Option<u64>)> = moved
                    .into_iter()
                    .map(|k| {
                        let entry = self.entries.remove(&k).unwrap();
                        (format!("{to}{}", &k[from.len()..]), entry)
                    })
                    .collect();
                self.entries.extend(moved);
                Ok("ok".into())
            }
            Call::Delete(raw, recursive) => {
                let p = normalize(raw)?;
                match self.entries.get(&p) {
                    None => return Err(format!("file not found: {raw}")),
                    Some(Some(_)) => {}
                    Some(None) if p == "/" => {
                        return Err("invalid path: cannot remove the root directory".into())
                    }
                    Some(None) => {
                        let below: Vec<String> = self
                            .entries
                            .keys()
                            .filter(|k| under(k, &p))
                            .cloned()
                            .collect();
                        if !recursive && !below.is_empty() {
                            return Err(format!("directory not empty: {p}"));
                        }
                        for k in below {
                            self.entries.remove(&k);
                        }
                    }
                }
                self.entries.remove(&p);
                Ok("ok".into())
            }
            Call::List(p) => {
                let p = normalize(p)?;
                match self.entries.get(&p) {
                    None => Err(format!("file not found: {p}")),
                    Some(Some(_)) => Err(format!("not a directory: {p}")),
                    Some(None) => Ok(self
                        .entries
                        .keys()
                        .filter(|k| *k != "/" && parent(k) == p)
                        .cloned()
                        .collect::<Vec<_>>()
                        .join(",")),
                }
            }
            Call::Exists(p) => Ok(normalize(p)
                .is_ok_and(|p| self.entries.contains_key(&p))
                .to_string()),
            Call::Len(p) => {
                let p = normalize(p)?;
                match self.entries.get(&p) {
                    None => Err(format!("file not found: {p}")),
                    Some(None) => Err(format!("is a directory: {p}")),
                    Some(Some(len)) => Ok(len.to_string()),
                }
            }
        }
    }

    fn tree(&self) -> Vec<(String, Option<u64>)> {
        let mut out: Vec<_> = self
            .entries
            .iter()
            .filter(|(k, _)| *k != "/")
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.sort();
        out
    }
}

fn decode((kind, p, q, recursive, len): (u8, usize, usize, bool, usize)) -> Call {
    let (p, q) = (PATHS[p], PATHS[q]);
    match kind {
        0 => Call::Mkdirs(p),
        1 => Call::WriteFile(p, len),
        2 => Call::Rename(p, q),
        3 => Call::Delete(p, recursive),
        4 => Call::List(p),
        5 => Call::Exists(p),
        _ => Call::Len(p),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bsfs_hdfs_and_the_model_answer_every_namespace_call_alike(
        calls in prop::collection::vec(
            (0u8..7, 0..PATHS.len(), 0..PATHS.len(), any::<bool>(), 0usize..700),
            1..40,
        ),
    ) {
        let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(256));
        let bsfs = BsfsFs::new(Bsfs::new(storage, BsfsConfig::for_tests()));
        let hdfs = HdfsFs::new(Hdfs::new(HdfsConfig::for_tests()));
        let mut model = Model::new();
        for (step, raw) in calls.iter().enumerate() {
            let c = decode(*raw);
            let expected = model.apply(&c);
            for (fs, name) in [(&bsfs as &dyn DistFs, "BSFS"), (&hdfs, "HDFS")] {
                let got = call(fs, &c);
                prop_assert!(
                    got == expected,
                    "{} answered {:?} to step {} {:?}, the model {:?}",
                    name, got, step, c, expected
                );
                let (got, want) = (tree(fs), model.tree());
                prop_assert!(
                    got == want,
                    "{} holds {:?} after step {} {:?}, the model {:?}",
                    name, got, step, c, want
                );
            }
        }
    }
}
