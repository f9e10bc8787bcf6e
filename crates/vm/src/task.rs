//! Tasks: an address map plus a software pmap.
//!
//! The pmap is the machine-dependent translation layer in Mach; here it is a
//! [`PageTable`] from virtual page to frame. Reference/modify bits live on
//! the frame (see [`crate::frame::FrameTable::touch`]), as Mach keeps them
//! on `vm_page` via pmap emulation.

use crate::map::VmMap;
use crate::pagetable::PageTable;
use crate::types::{FrameId, TaskId};

/// One simulated task (process address space).
#[derive(Debug, Clone)]
pub struct Task {
    /// Task identifier.
    pub id: TaskId,
    /// The task's address map.
    pub map: VmMap,
    /// Installed translations: virtual page → frame.
    pub pmap: PageTable,
}

impl Task {
    /// Creates a task with an empty map and pmap.
    pub fn new(id: TaskId) -> Self {
        Task {
            id,
            map: VmMap::new(),
            pmap: PageTable::new(),
        }
    }

    /// Looks up the translation for a virtual page.
    #[inline]
    pub fn translate(&self, vpage: u64) -> Option<FrameId> {
        self.pmap.get(vpage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translations() {
        let mut t = Task::new(TaskId(3));
        assert_eq!(t.translate(5), None);
        t.pmap.insert(5, FrameId(9));
        assert_eq!(t.translate(5), Some(FrameId(9)));
    }
}
