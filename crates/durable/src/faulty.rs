//! The crate's `fs` in its own tests: `std::fs`, plus a fault plan.
//!
//! A [`Plan`] belongs to one store directory. Every call made here on a
//! path in that directory, or on a file opened there, is counted against
//! it — from any thread, so the writer's calls count too — and the call
//! the plan names suffers its [`Fault`]. A file takes its plan when it is
//! opened. Tests that run side by side use directories of their own, so
//! their plans never meet; without a plan, every call is `std`'s own.

use parking_lot::Mutex;
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

/// What the planned call suffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// The call fails and does nothing.
    Fail,
    /// A write lands its first half, a read fills its first half, and
    /// then the call fails. A call that moves no bytes just fails.
    Short,
    /// A read — positional or streamed — returns its bytes with one bit
    /// flipped: this index, modulo the bits read. Any other call just
    /// fails.
    ///
    /// A positional read is the fault path, which must refuse bytes that
    /// do not hash to the name asked for. A streamed read is the scan at
    /// open, to which a flipped byte looks like a corrupt frame: open
    /// must re-read that frame and, finding it whole, refuse to cut the
    /// log at a misread.
    Flip(u64),
}

impl Fault {
    /// The fault `seed` picks: its kind, and the bit a flip flips.
    pub(crate) fn from_seed(seed: u64) -> Fault {
        match seed % 3 {
            0 => Fault::Fail,
            1 => Fault::Short,
            _ => Fault::Flip(seed / 3),
        }
    }
}

/// One store directory's fault plan.
pub(crate) struct Plan {
    dir: PathBuf,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    /// The name of every call made so far, in order.
    calls: Vec<&'static str>,
    /// The call that faults, as an index into `calls`, and how.
    target: Option<(usize, Fault)>,
}

/// The armed plans. Each is found by its directory, so two stores never
/// share one.
static PLANS: Mutex<Vec<Weak<Plan>>> = Mutex::new(Vec::new());

/// A plan for the store in `dir`: it counts that store's calls, and
/// faults none until [`Plan::fault`] names one. Dropping it disarms it.
pub(crate) fn arm(dir: &Path) -> Arc<Plan> {
    let plan = Arc::new(Plan {
        dir: dir.to_path_buf(),
        state: Mutex::new(State::default()),
    });
    let mut plans = PLANS.lock();
    plans.retain(|p| p.strong_count() > 0);
    plans.push(Arc::downgrade(&plan));
    plan
}

/// The plan of the directory `path` is, or is in.
fn plan_for(path: &Path) -> Option<Arc<Plan>> {
    PLANS
        .lock()
        .iter()
        .filter_map(Weak::upgrade)
        .find(|p| path == p.dir || path.parent() == Some(&p.dir))
}

impl Plan {
    /// Faults call number `call` (from 0, counted since arming).
    pub(crate) fn fault(&self, call: usize, fault: Fault) {
        self.state.lock().target = Some((call, fault));
    }

    /// The names of the calls made so far, in order.
    pub(crate) fn calls(&self) -> Vec<&'static str> {
        self.state.lock().calls.clone()
    }

    /// Counts a call named `name`: the fault it suffers, if planned.
    fn call(&self, name: &'static str) -> Option<Fault> {
        let mut state = self.state.lock();
        state.calls.push(name);
        let at = state.calls.len() - 1;
        state.target.filter(|&(call, _)| call == at).map(|(_, f)| f)
    }
}

fn injected() -> io::Error {
    io::Error::other("injected fault")
}

/// Flips bit `bit`, modulo the bits read, of the `read` bytes at the
/// head of `buf`; a read of nothing has no bit to flip and fails.
fn flip(buf: &mut [u8], read: usize, bit: u64) -> io::Result<usize> {
    let bits = 8 * read as u64;
    if bits == 0 {
        return Err(injected());
    }
    let bit = bit % bits;
    buf[(bit / 8) as usize] ^= 1 << (bit % 8);
    Ok(read)
}

/// Counts a call that moves no bytes under `plan`: any fault fails it.
fn check(plan: Option<&Arc<Plan>>, name: &'static str) -> io::Result<()> {
    match plan.and_then(|p| p.call(name)) {
        Some(_) => Err(injected()),
        None => Ok(()),
    }
}

pub(crate) fn create_dir_all(dir: impl AsRef<Path>) -> io::Result<()> {
    check(plan_for(dir.as_ref()).as_ref(), "create_dir_all")?;
    std::fs::create_dir_all(dir)
}

pub(crate) fn read_dir(dir: impl AsRef<Path>) -> io::Result<std::fs::ReadDir> {
    check(plan_for(dir.as_ref()).as_ref(), "read_dir")?;
    std::fs::read_dir(dir)
}

pub(crate) fn remove_file(path: impl AsRef<Path>) -> io::Result<()> {
    check(plan_for(path.as_ref()).as_ref(), "remove_file")?;
    std::fs::remove_file(path)
}

pub(crate) fn rename(from: impl AsRef<Path>, to: impl AsRef<Path>) -> io::Result<()> {
    check(plan_for(from.as_ref()).as_ref(), "rename")?;
    std::fs::rename(from, to)
}

/// `std::fs::OpenOptions`, opening a [`File`] that carries its plan.
pub(crate) struct OpenOptions(std::fs::OpenOptions);

impl OpenOptions {
    pub(crate) fn new() -> OpenOptions {
        OpenOptions(std::fs::OpenOptions::new())
    }

    pub(crate) fn read(&mut self, read: bool) -> &mut OpenOptions {
        self.0.read(read);
        self
    }

    pub(crate) fn write(&mut self, write: bool) -> &mut OpenOptions {
        self.0.write(write);
        self
    }

    pub(crate) fn create(&mut self, create: bool) -> &mut OpenOptions {
        self.0.create(create);
        self
    }

    pub(crate) fn truncate(&mut self, truncate: bool) -> &mut OpenOptions {
        self.0.truncate(truncate);
        self
    }

    pub(crate) fn open(&self, path: impl AsRef<Path>) -> io::Result<File> {
        let plan = plan_for(path.as_ref());
        check(plan.as_ref(), "open")?;
        Ok(File {
            file: self.0.open(path)?,
            plan,
        })
    }
}

/// `std::fs::File`, with the plan of the directory it was opened in.
pub(crate) struct File {
    file: std::fs::File,
    plan: Option<Arc<Plan>>,
}

impl File {
    pub(crate) fn open(path: impl AsRef<Path>) -> io::Result<File> {
        OpenOptions::new().read(true).open(path)
    }

    fn fault(&self, name: &'static str) -> Option<Fault> {
        self.plan.as_ref()?.call(name)
    }

    pub(crate) fn metadata(&self) -> io::Result<std::fs::Metadata> {
        check(self.plan.as_ref(), "metadata")?;
        self.file.metadata()
    }

    pub(crate) fn set_len(&self, len: u64) -> io::Result<()> {
        check(self.plan.as_ref(), "set_len")?;
        self.file.set_len(len)
    }

    pub(crate) fn sync_data(&self) -> io::Result<()> {
        check(self.plan.as_ref(), "sync_data")?;
        self.file.sync_data()
    }

    pub(crate) fn sync_all(&self) -> io::Result<()> {
        check(self.plan.as_ref(), "sync_all")?;
        self.file.sync_all()
    }

    pub(crate) fn try_clone(&self) -> io::Result<File> {
        check(self.plan.as_ref(), "try_clone")?;
        Ok(File {
            file: self.file.try_clone()?,
            plan: self.plan.clone(),
        })
    }
}

impl FileExt for File {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        match self.fault("read_at") {
            None => self.file.read_at(buf, offset),
            Some(Fault::Fail) => Err(injected()),
            Some(Fault::Short) => {
                let half = buf.len() / 2;
                self.file.read_at(&mut buf[..half], offset)?;
                Err(injected())
            }
            Some(Fault::Flip(bit)) => {
                let read = self.file.read_at(buf, offset)?;
                flip(buf, read, bit)
            }
        }
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<usize> {
        match self.fault("write_at") {
            None => self.file.write_at(buf, offset),
            Some(Fault::Short) => {
                self.file.write_all_at(&buf[..buf.len() / 2], offset)?;
                Err(injected())
            }
            Some(_) => Err(injected()),
        }
    }
}

impl Read for &File {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.fault("read") {
            None => (&self.file).read(buf),
            Some(Fault::Short) => {
                let half = buf.len() / 2;
                (&self.file).read(&mut buf[..half])?;
                Err(injected())
            }
            Some(Fault::Flip(bit)) => {
                let read = (&self.file).read(buf)?;
                flip(buf, read, bit)
            }
            Some(Fault::Fail) => Err(injected()),
        }
    }
}
