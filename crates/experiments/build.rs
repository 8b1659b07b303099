//! Captures build provenance (git commit, toolchain versions, profile)
//! into compile-time env vars for `repro --version` and the run
//! records. Every value degrades to `"unknown"` rather than failing the
//! build — provenance is best-effort by design (e.g. builds from a
//! source tarball have no git history).

use std::process::Command;

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    if line.is_empty() {
        None
    } else {
        Some(line)
    }
}

/// Reruns this script whenever the commit HEAD resolves to can change:
/// HEAD itself (a checkout), the branch ref it names (a commit on that
/// branch) and `packed-refs`. `git rev-parse --git-path` resolves each
/// path, so worktrees and relocated git directories work too. Only
/// existing paths are watched, because Cargo reruns a script on every
/// build while a watched path is missing. A branch that lives only in
/// `packed-refs` is watched through its directory, where the next
/// commit writes it.
fn watch_git_head() {
    let branch = command_line("git", &["symbolic-ref", "-q", "HEAD"]);
    for name in ["HEAD", "packed-refs"].into_iter().chain(branch.as_deref()) {
        let Some(mut path) =
            command_line("git", &["rev-parse", "--git-path", name]).map(std::path::PathBuf::from)
        else {
            continue;
        };
        if !path.exists() && Some(name) == branch.as_deref() {
            path.pop();
        }
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
}

fn main() {
    let unknown = || "unknown".to_string();
    let git_commit =
        command_line("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(unknown);
    let rustc = std::env::var("RUSTC")
        .ok()
        .and_then(|rc| command_line(&rc, &["--version"]))
        .unwrap_or_else(unknown);
    let cargo = std::env::var("CARGO")
        .ok()
        .and_then(|c| command_line(&c, &["--version"]))
        .unwrap_or_else(unknown);
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| unknown());
    println!("cargo:rustc-env=SWCC_GIT_COMMIT={git_commit}");
    println!("cargo:rustc-env=SWCC_RUSTC={rustc}");
    println!("cargo:rustc-env=SWCC_CARGO={cargo}");
    println!("cargo:rustc-env=SWCC_PROFILE={profile}");
    watch_git_head();
}
