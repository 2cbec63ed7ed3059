"""recurfit: retrofit depth recurrence into fixed-depth decoder
transformers, and train/evaluate the result at a desk scale."""
