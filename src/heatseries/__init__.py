"""Power-series heat propagators, analytic-radius certificates, and audits
on locally finite weighted graphs."""
