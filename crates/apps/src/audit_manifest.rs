//! Fleet manifests for `taco-vet --audit`.
//!
//! A manifest is a small line-oriented file (conventionally `fleet.audit`)
//! declaring the agents of a deployment and the folder environment they run
//! in, so the whole-fleet audit ([`tacoma_script::audit()`]) can check folder
//! flow, itineraries and the meet graph across scripts:
//!
//! ```text
//! # one directive per line; '#' starts a comment
//! sites 4
//! agent courier courier_summary.taco      # name, then path
//! native storm_expert                     # a Rust agent, opaque to the audit
//! inject HOPS ITINERARY                   # folders present in the briefcase
//! deliver TALLY SUMMARY                   # folders read by the outside world
//! ```
//!
//! Script paths are resolved relative to the manifest's directory, and
//! findings render against the path exactly as written in the manifest, so
//! reports stay stable regardless of where the tool is invoked from.

use std::path::Path;
use tacoma_script::AuditConfig;

/// Reads a manifest file and parses it with [`parse_manifest`], resolving
/// scripts against the manifest's directory and labelling errors with its
/// path.
pub fn load_manifest(path: &Path) -> Result<AuditConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    parse_manifest(&text, dir, &path.display().to_string())
}

/// Parses manifest `text` and loads every referenced script from `dir`,
/// producing the audit configuration.  Errors (unknown directives,
/// unreadable scripts, malformed site counts, duplicate agents) start with
/// `label:<line>:`.
pub fn parse_manifest(text: &str, dir: &Path, label: &str) -> Result<AuditConfig, String> {
    let mut config = AuditConfig::new();
    let mut seen: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let at = |msg: String| format!("{label}:{lineno}: {msg}");
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let directive = words.next().expect("non-empty line");
        let args: Vec<&str> = words.collect();
        match directive {
            "sites" => {
                let [count] = args.as_slice() else {
                    return Err(at("'sites' takes exactly one number".to_string()));
                };
                let n: u32 = count
                    .parse()
                    .map_err(|_| at(format!("invalid site count '{count}'")))?;
                config.set_site_count(n);
            }
            "agent" => {
                let [name, script] = args.as_slice() else {
                    return Err(at("'agent' takes a name and a script path".to_string()));
                };
                if seen.iter().any(|s| s == name) {
                    return Err(at(format!("agent '{name}' declared twice")));
                }
                seen.push((*name).to_string());
                let code = std::fs::read_to_string(dir.join(script))
                    .map_err(|e| at(format!("{script}: {e}")))?;
                config.add_agent(*name, *script, code);
            }
            "native" => {
                let [name] = args.as_slice() else {
                    return Err(at("'native' takes exactly one agent name".to_string()));
                };
                if seen.iter().any(|s| s == name) {
                    return Err(at(format!("agent '{name}' declared twice")));
                }
                seen.push((*name).to_string());
                config.add_native(*name);
            }
            "inject" => {
                if args.is_empty() {
                    return Err(at("'inject' takes one or more folder names".to_string()));
                }
                for folder in args {
                    config.add_injected(folder);
                }
            }
            "deliver" => {
                if args.is_empty() {
                    return Err(at("'deliver' takes one or more folder names".to_string()));
                }
                for folder in args {
                    config.add_delivered(folder);
                }
            }
            other => {
                return Err(at(format!(
                    "unknown directive '{other}' (expected sites/agent/native/inject/deliver)"
                )));
            }
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, name: &str, content: &str) {
        std::fs::write(dir.join(name), content).unwrap();
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("taco_audit_manifest_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifests_parse_and_resolve_scripts_relatively() {
        let dir = tempdir("ok");
        write(&dir, "w.taco", "bc_put OUT 1\nreturn ok");
        write(
            &dir,
            "fleet.audit",
            "# demo fleet\nsites 3\nagent writer w.taco  # trailing comment\nnative helper\ninject SEED\ndeliver OUT RESULT\n",
        );
        let config = load_manifest(&dir.join("fleet.audit")).unwrap();
        assert_eq!(config.declared_site_count(), Some(3));
        assert_eq!(config.agents().len(), 2);
        assert_eq!(config.agents()[0].name, "writer");
        assert_eq!(config.agents()[0].source, "w.taco");
        assert!(config.agents()[1].code.is_none());
        assert!(tacoma_script::audit(&config).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_errors_carry_the_line_number() {
        let dir = tempdir("err");
        write(&dir, "fleet.audit", "sites 3\nfrobnicate x\n");
        let err = load_manifest(&dir.join("fleet.audit")).unwrap_err();
        assert!(err.contains("fleet.audit:2"), "{err}");
        assert!(err.contains("unknown directive 'frobnicate'"), "{err}");

        write(&dir, "fleet.audit", "agent ghost missing.taco\n");
        let err = load_manifest(&dir.join("fleet.audit")).unwrap_err();
        assert!(err.contains("missing.taco"), "{err}");

        write(&dir, "w.taco", "return ok");
        write(&dir, "fleet.audit", "agent a w.taco\nagent a w.taco\n");
        let err = load_manifest(&dir.join("fleet.audit")).unwrap_err();
        assert!(err.contains("declared twice"), "{err}");

        write(&dir, "fleet.audit", "sites many\n");
        let err = load_manifest(&dir.join("fleet.audit")).unwrap_err();
        assert!(err.contains("invalid site count"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
