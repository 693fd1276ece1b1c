//! The token ledger backing the release contract.
//!
//! A [`Ledger`] tracks free balances per account plus two contract-owned
//! pots: **escrow** (bonds and reward funds locked by open deposits) and
//! **treasury** (slashed bonds, permanently confiscated). Every movement
//! is a transfer between these three pools, so the total supply is
//! invariant over any operation sequence — the *escrow conservation*
//! property the workspace's economics suite property-tests.

use crate::error::ContractError;

/// An account index on the ledger.
pub type AccountId = usize;

/// Free balances plus the contract-owned escrow and treasury pots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    balances: Vec<u64>,
    escrow: u64,
    treasury: u64,
}

impl Ledger {
    /// Creates a ledger with `accounts` accounts holding `initial_balance`
    /// each.
    pub fn new(accounts: usize, initial_balance: u64) -> Self {
        let mut ledger = Ledger::default();
        ledger.reset(accounts, initial_balance);
        ledger
    }

    /// Resets the ledger in place to `accounts` accounts holding
    /// `initial_balance` each and empty pots — [`Ledger::new`] reusing
    /// this ledger's balance storage.
    pub fn reset(&mut self, accounts: usize, initial_balance: u64) {
        self.balances.clear();
        self.balances.resize(accounts, initial_balance);
        self.escrow = 0;
        self.treasury = 0;
    }

    /// Number of accounts.
    pub fn accounts(&self) -> usize {
        self.balances.len()
    }

    /// Appends a new account holding `balance`, returning its id. Minting
    /// at account creation is the only way supply enters the ledger.
    pub fn push_account(&mut self, balance: u64) -> AccountId {
        self.balances.push(balance);
        self.balances.len() - 1
    }

    /// Free balance of `account`.
    ///
    /// # Panics
    ///
    /// Panics if the account does not exist.
    pub fn balance(&self, account: AccountId) -> u64 {
        self.balances[account]
    }

    /// Free balance of `account`, or `None` if the account does not exist
    /// (the non-panicking form used for pre-flight validation).
    pub fn balance_checked(&self, account: AccountId) -> Option<u64> {
        self.balances.get(account).copied()
    }

    /// Tokens currently locked in contract escrow.
    pub fn escrow(&self) -> u64 {
        self.escrow
    }

    /// Tokens confiscated by slashing.
    pub fn treasury(&self) -> u64 {
        self.treasury
    }

    /// The total token supply: free balances + escrow + treasury. Constant
    /// over every ledger operation.
    pub fn total_supply(&self) -> u64 {
        self.balances.iter().sum::<u64>() + self.escrow + self.treasury
    }

    /// Locks `amount` from `account` into escrow.
    ///
    /// # Errors
    ///
    /// [`ContractError::InsufficientFunds`] if the free balance is too
    /// small; [`ContractError::UnknownAccount`] for a bad account id.
    pub fn lock(&mut self, account: AccountId, amount: u64) -> Result<(), ContractError> {
        let balance = self
            .balances
            .get_mut(account)
            .ok_or(ContractError::UnknownAccount { account })?;
        if *balance < amount {
            return Err(ContractError::InsufficientFunds {
                account,
                required: amount,
                available: *balance,
            });
        }
        *balance -= amount;
        self.escrow += amount;
        Ok(())
    }

    /// Releases `amount` from escrow to `account`.
    ///
    /// # Errors
    ///
    /// [`ContractError::EscrowUnderflow`] if the escrow pot holds less
    /// than `amount`; [`ContractError::UnknownAccount`] for a bad id.
    pub fn release(&mut self, account: AccountId, amount: u64) -> Result<(), ContractError> {
        if self.escrow < amount {
            return Err(ContractError::EscrowUnderflow {
                required: amount,
                available: self.escrow,
            });
        }
        let balance = self
            .balances
            .get_mut(account)
            .ok_or(ContractError::UnknownAccount { account })?;
        self.escrow -= amount;
        *balance += amount;
        Ok(())
    }

    /// Confiscates `amount` from escrow into the treasury (a slash).
    ///
    /// # Errors
    ///
    /// [`ContractError::EscrowUnderflow`] if the escrow pot holds less
    /// than `amount`.
    pub fn confiscate(&mut self, amount: u64) -> Result<(), ContractError> {
        if self.escrow < amount {
            return Err(ContractError::EscrowUnderflow {
                required: amount,
                available: self.escrow,
            });
        }
        self.escrow -= amount;
        self.treasury += amount;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lock_release_round_trip_conserves_supply() {
        let mut ledger = Ledger::new(3, 100);
        assert_eq!(ledger.total_supply(), 300);
        ledger.lock(0, 60).unwrap();
        assert_eq!(ledger.balance(0), 40);
        assert_eq!(ledger.escrow(), 60);
        assert_eq!(ledger.total_supply(), 300);
        ledger.release(1, 60).unwrap();
        assert_eq!(ledger.balance(1), 160);
        assert_eq!(ledger.total_supply(), 300);
    }

    #[test]
    fn overdraft_and_underflow_are_errors() {
        let mut ledger = Ledger::new(1, 10);
        assert!(matches!(
            ledger.lock(0, 11),
            Err(ContractError::InsufficientFunds { .. })
        ));
        assert!(matches!(
            ledger.lock(5, 1),
            Err(ContractError::UnknownAccount { account: 5 })
        ));
        assert!(matches!(
            ledger.release(0, 1),
            Err(ContractError::EscrowUnderflow { .. })
        ));
        assert!(matches!(
            ledger.confiscate(1),
            Err(ContractError::EscrowUnderflow { .. })
        ));
        // Failed operations leave the ledger untouched.
        assert_eq!(ledger.balance(0), 10);
        assert_eq!(ledger.total_supply(), 10);
    }

    #[test]
    fn confiscation_moves_escrow_to_treasury() {
        let mut ledger = Ledger::new(2, 50);
        ledger.lock(0, 30).unwrap();
        ledger.confiscate(30).unwrap();
        assert_eq!(ledger.treasury(), 30);
        assert_eq!(ledger.escrow(), 0);
        assert_eq!(ledger.total_supply(), 100);
    }

    proptest! {
        /// Any sequence of (possibly failing) ledger operations conserves
        /// the total supply. Each raw word decodes to an (op, account,
        /// amount) triple.
        #[test]
        fn arbitrary_operation_sequences_conserve_supply(
            ops in proptest::collection::vec(0u64..u64::MAX, 0..64),
        ) {
            let mut ledger = Ledger::new(3, 100);
            let supply = ledger.total_supply();
            for word in ops {
                let op = word % 3;
                let account = (word / 3 % 4) as usize;
                let amount = word / 12 % 200;
                let _ = match op {
                    0 => ledger.lock(account, amount),
                    1 => ledger.release(account, amount),
                    _ => ledger.confiscate(amount),
                };
                prop_assert_eq!(ledger.total_supply(), supply);
            }
        }
    }
}
