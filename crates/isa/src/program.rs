//! Assembled program container.

use crate::inst::Inst;
use crate::layout::DATA_BASE;

/// An assembled unit: instruction text, an initialized data image based at
/// [`DATA_BASE`](crate::DATA_BASE), and the entry point. Labels are
/// resolved by the assembler and not kept.
///
/// # Examples
///
/// ```
/// use hbdc_isa::asm::assemble;
///
/// let p = assemble(".data\nv: .word 1, 2, 3\n.text\nmain: halt\n")?;
/// assert_eq!(p.data().len(), 12);
/// assert_eq!(p.entry(), 0);
/// # Ok::<(), hbdc_isa::AsmError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Program {
    text: Vec<Inst>,
    data: Vec<u8>,
    entry: u32,
}

impl Program {
    /// Creates a program from raw parts (normally produced by the assembler).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range of `text` for a non-empty text
    /// section.
    pub fn from_parts(text: Vec<Inst>, data: Vec<u8>, entry: u32) -> Self {
        if !text.is_empty() {
            assert!((entry as usize) < text.len(), "entry point out of range");
        }
        Self { text, data, entry }
    }

    /// The instruction text. PC values index this slice.
    pub fn text(&self) -> &[Inst] {
        &self.text
    }

    /// The initialized data image; byte 0 lives at virtual address
    /// [`DATA_BASE`](crate::DATA_BASE).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Virtual address of the first data byte.
    pub fn data_base(&self) -> u64 {
        DATA_BASE
    }

    /// Entry-point instruction index (the `main` label, or 0).
    pub fn entry(&self) -> u32 {
        self.entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn from_parts_validates_entry() {
        let p = Program::from_parts(vec![Inst::Halt], vec![], 0);
        assert_eq!(p.entry(), 0);
        assert_eq!(p.text().len(), 1);
    }

    #[test]
    #[should_panic(expected = "entry point out of range")]
    fn bad_entry_panics() {
        Program::from_parts(vec![Inst::Halt], vec![], 5);
    }

    #[test]
    fn empty_program_is_default() {
        let p = Program::default();
        assert!(p.text().is_empty());
        assert!(p.data().is_empty());
        assert_eq!(p.data_base(), DATA_BASE);
    }
}
